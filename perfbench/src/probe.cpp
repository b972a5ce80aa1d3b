// `perfbench probe`: per-layer timings measured by calling one layer of the
// program in isolation, for the traced run.
//   net.parse_ns        http::parse_request on the workload's own request
//                       bytes (gateway workloads only)
//   pool.hop_us_p50     an empty task submitted to an idle util::ThreadPool
//                       of the server's size, until the submitter sees it done
//   core.voter_ns       core::majority_voter over three agreeing ballots
//   faults.injector_ns  a faults::FaultInjector version minus the bare
//                       function it decorates
// Each is the median of repeated batches.
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign_cells.hpp"
#include "core/voters.hpp"
#include "net/http.hpp"
#include "util.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace redundancy;

namespace {

constexpr int kBatches = 15;

/// Median over kBatches of (ns per call of `body` over `calls` calls).
template <typename Body>
double median_ns_per_call(std::size_t calls, Body&& body) {
  std::vector<std::uint64_t> per_batch;  // in ps, to keep sub-ns digits
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    per_batch.push_back((now_ns() - t0) * 1000 / calls);
  }
  return static_cast<double>(quantile(per_batch, 0.5)) / 1000.0;
}

/// Every timed result is folded in here; volatile stores cannot be elided,
/// so neither can the calls that feed them.
volatile std::uint64_t g_sink = 0;

double parse_ns(const GatewaySpec& spec, std::uint64_t seed) {
  OpStream stream{spec, seed};
  std::vector<std::string> requests;
  for (int i = 0; i < 4096; ++i) requests.push_back(request_bytes(stream.next()));
  return median_ns_per_call(requests.size() * 25, [&](std::size_t i) {
    const auto r = net::http::parse_request(requests[i % requests.size()]);
    g_sink = g_sink + r.consumed;
  });
}

double hop_us_p50(std::size_t workers) {
  util::ThreadPool pool{workers};
  std::vector<std::uint64_t> ns;
  std::atomic<bool> done{false};
  for (int i = 0; i < 20000; ++i) {
    done.store(false, std::memory_order_relaxed);
    const std::uint64_t t0 = now_ns();
    pool.post([&done] { done.store(true, std::memory_order_release); });
    while (!done.load(std::memory_order_acquire)) {
    }
    ns.push_back(now_ns() - t0);
  }
  return static_cast<double>(quantile(ns, 0.5)) / 1000.0;
}

double voter_ns() {
  const auto voter = core::majority_voter<std::uint64_t>();
  std::vector<core::Ballot<std::uint64_t>> ballots;
  for (std::size_t i = 0; i < 3; ++i) {
    ballots.push_back({i, "v" + std::to_string(i),
                       core::Result<std::uint64_t>{hash_chain(7)}});
  }
  return median_ns_per_call(200000, [&](std::size_t) {
    const auto r = voter(ballots);
    g_sink = g_sink + (r.has_value() ? r.value() : 1);
  });
}

double injector_ns() {
  faults::FaultInjector<In, Out> version{"v", implementation};
  version.add(faults::bohrbug<In, Out>("b", kRate, 800,
                                       core::FailureKind::wrong_output,
                                       faults::skewed<In, Out>(1)));
  const core::Variant<In, Out> variant = version.as_variant();
  const auto with = median_ns_per_call(200000, [&](std::size_t i) {
    const auto r = variant(static_cast<In>(i));
    g_sink = g_sink + (r.has_value() ? static_cast<std::uint64_t>(r.value()) : 1);
  });
  const std::function<Out(const In&)> bare = implementation;
  const auto without = median_ns_per_call(200000, [&](std::size_t i) {
    g_sink = g_sink + static_cast<std::uint64_t>(bare(static_cast<In>(i)));
  });
  return with - without;
}

}  // namespace

int probe_main(int argc, char** argv) {
  Args args{argc, argv};
  const std::string workload = args.str("--workload");
  const std::uint64_t seed = args.u64("--seed");
  const std::size_t pool = args.u64("--pool");
  const std::string cpus = args.str("--cpus");
  if (!args.ok()) return 2;
  pin_self(cpus);
  Json j;
  double parse = 0;
  if (workload == "echo_saturate") parse = parse_ns(echo_saturate_spec(), seed);
  if (workload == "mix_rate") parse = parse_ns(mix_rate_spec(), seed);
  j.field("net.parse_ns", parse);
  j.field("pool.hop_us_p50", hop_us_p50(pool));
  j.field("core.voter_ns", voter_ns());
  j.field("faults.injector_ns", injector_ns());
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace perfbench
