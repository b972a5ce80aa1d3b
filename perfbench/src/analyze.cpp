// `perfbench analyze`: per-layer numbers of a traced gateway run, from three
// sources written during its timed phase —
//   client_spans.tsv       the load generator's span per request (intended
//                          send, sent, first byte, last byte);
//   metrics_{before,after}.prom
//                          the server's /metrics around the timed phase;
//   server.trace.jsonl     the program's recorder output, loaded through
//                          tracetool_lib.
// It also checks that every server interval can lie inside its client
// interval: for every bucket bound b of gateway.request_ns, no more
// requests finish within b on the client than on the server.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "tracetool/trace_model.hpp"
#include "util.hpp"

namespace perfbench {

using namespace redundancy;

namespace {

/// The counters and histograms of one Prometheus text scrape.
struct Scrape {
  std::map<std::string, double> values;              ///< series -> value
  std::map<std::string, obs::HistogramSnapshot> hists;  ///< family{labels}
};

Scrape load_scrape(const std::string& path) {
  Scrape s;
  std::ifstream in{path};
  std::string line;
  // Cumulative bucket counts as rendered (only occupied buckets appear).
  std::map<std::string, std::map<std::size_t, std::uint64_t>> cumulative;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string series = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    s.values[series] = value;
    const std::size_t bucket = series.find("_bucket{");
    const std::size_t le = series.find("le=\"");
    if (bucket == std::string::npos || le == std::string::npos) continue;
    const std::string family = series.substr(0, bucket);
    std::string labels = series.substr(bucket + 8, le - (bucket + 8));
    if (!labels.empty() && labels.back() == ',') labels.pop_back();
    const std::string key = labels.empty() ? family : family + "{" + labels + "}";
    const std::string bound = series.substr(le + 4, series.find('"', le + 4) - (le + 4));
    std::size_t index = obs::HistogramSnapshot::kBuckets - 1;
    if (bound != "+Inf") {
      const unsigned long long b = std::strtoull(bound.c_str(), nullptr, 10);
      index = 0;
      while (index + 1 < obs::HistogramSnapshot::kBuckets - 1 &&
             obs::HistogramSnapshot::bucket_bound(index) < b) {
        ++index;
      }
    }
    cumulative[key][index] = static_cast<std::uint64_t>(value);
  }
  for (const auto& [key, buckets] : cumulative) {
    obs::HistogramSnapshot h;
    std::uint64_t previous = 0;
    for (const auto& [index, cum] : buckets) {
      if (index == obs::HistogramSnapshot::kBuckets - 1) {
        h.count = cum;  // +Inf: the total, already attributed below
        continue;
      }
      h.buckets[index] = cum - previous;
      previous = cum;
    }
    h.buckets[obs::HistogramSnapshot::kBuckets - 1] = h.count - previous;
    s.hists[key] = h;
  }
  return s;
}

double delta(const Scrape& a, const Scrape& b, const std::string& series) {
  const auto ia = a.values.find(series);
  const auto ib = b.values.find(series);
  return (ib == b.values.end() ? 0.0 : ib->second) -
         (ia == a.values.end() ? 0.0 : ia->second);
}

obs::HistogramSnapshot hist_delta(const Scrape& a, const Scrape& b,
                                  const std::string& key) {
  const auto ib = b.hists.find(key);
  if (ib == b.hists.end()) return {};
  const auto ia = a.hists.find(key);
  return ia == a.hists.end() ? ib->second : ib->second.diff(ia->second);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int analyze_main(int argc, char** argv) {
  Args args{argc, argv};
  const std::string dir = args.str("--dir");
  if (!args.ok()) return 2;

  std::vector<std::uint64_t> client_ns, late_ns;
  std::uint64_t window_lo = UINT64_MAX, window_hi = 0;
  {
    std::ifstream in{dir + "/client_spans.tsv"};
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      std::istringstream row{line};
      std::uint64_t conn, seq, key, intended, sent, first, last;
      std::string route;
      if (!(row >> conn >> seq >> key >> route >> intended >> sent >> first >> last)) {
        std::fprintf(stderr, "analyze: bad client span line\n");
        return 1;
      }
      client_ns.push_back(last - intended);
      late_ns.push_back(sent > intended ? sent - intended : 0);
      window_lo = std::min(window_lo, intended);
      window_hi = std::max(window_hi, last);
    }
  }
  const double ops = static_cast<double>(client_ns.size());
  if (client_ns.empty()) {
    std::fprintf(stderr, "analyze: no client spans\n");
    return 1;
  }

  const Scrape before = load_scrape(dir + "/metrics_before.prom");
  const Scrape after = load_scrape(dir + "/metrics_after.prom");
  const obs::HistogramSnapshot server = hist_delta(before, after, "gateway_request_ns");

  // Containment check at every bucket bound.
  std::vector<std::uint64_t> sorted = client_ns;
  std::sort(sorted.begin(), sorted.end());
  bool covers = server.count >= client_ns.size();
  std::uint64_t server_cum = 0;
  for (std::size_t b = 0; b + 1 < obs::HistogramSnapshot::kBuckets; ++b) {
    server_cum += server.buckets[b];
    const std::uint64_t bound = obs::HistogramSnapshot::bucket_bound(b);
    const auto client_cum = static_cast<std::uint64_t>(
        std::upper_bound(sorted.begin(), sorted.end(), bound) - sorted.begin());
    if (client_cum > server_cum) {
      std::fprintf(stderr,
                   "analyze: %llu client latencies <= %llu ns but only %llu "
                   "server ones\n",
                   static_cast<unsigned long long>(client_cum),
                   static_cast<unsigned long long>(bound),
                   static_cast<unsigned long long>(server_cum));
      covers = false;
    }
  }

  // Recorder spans that started inside the timed window.
  tracetool::TraceData trace;
  {
    std::ifstream in{dir + "/server.trace.jsonl"};
    tracetool::load_trace(in, trace);
  }
  std::uint64_t spans = 0, variant_spans = 0;
  for (const auto& s : trace.spans) {
    if (s.t_start_ns < window_lo || s.t_start_ns > window_hi) continue;
    ++spans;
    if (s.name == "variant" || s.name == "alternative") ++variant_spans;
  }

  const double client_p50_us = static_cast<double>(quantile(client_ns, 0.5)) / 1e3;
  const double server_p50_us = server.percentile(50.0) / 1e3;
  const double hits = delta(before, after, "cache_hits_total{technique=\"gateway_fast\"}");
  const double misses = delta(before, after, "cache_misses_total{technique=\"gateway_fast\"}");

  Json j;
  j.field("covers_ok", covers);
  j.field("client_p50_us", client_p50_us);
  j.field("trace_malformed_lines", trace.malformed_lines);
  j.field("net.server_request_us_p50", server_p50_us);
  j.field("net.outside_server_us_p50", client_p50_us - server_p50_us);
  j.field("net.sends_per_response",
          ratio(delta(before, after, "gateway_sends_total"),
                delta(before, after, "gateway_responses_total")));
  j.field("pool.tasks_per_op", ratio(delta(before, after, "pool_tasks_executed_total"), ops));
  j.field("pool.steals_per_op", ratio(delta(before, after, "pool_tasks_stolen_total"), ops));
  j.field("pool.task_exec_ns_p50",
          hist_delta(before, after, "pool_task_exec_ns").percentile(50.0));
  j.field("core.fast_us_p50",
          hist_delta(before, after, "technique_request_ns{technique=\"gateway_fast\"}")
                  .percentile(50.0) / 1e3);
  j.field("core.vote_us_p50",
          hist_delta(before, after, "technique_request_ns{technique=\"gateway_vote\"}")
                  .percentile(50.0) / 1e3);
  j.field("core.cache_hit_ratio", ratio(hits, hits + misses));
  j.field("core.cache_lookups", hits + misses);
  j.field("core.variant_execs_per_op", ratio(static_cast<double>(variant_spans), ops));
  j.field("obs.spans_per_op", ratio(static_cast<double>(spans), ops));
  j.field("loadgen.late_us_p50", static_cast<double>(quantile(late_ns, 0.5)) / 1e3);
  std::printf("%s\n", j.str().c_str());
  return covers ? 0 : 1;
}

}  // namespace perfbench
