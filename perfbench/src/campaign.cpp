// `perfbench campaign`: the in-process fault-injection workload. Each round
// runs every technique x fault-class cell of the Table-2 matrix for a fixed
// number of trials on seeded inputs; rounds repeat until the timed phase is
// over, so every run attempts whole rounds. Bohrbug cells go through
// run_campaign_parallel with one system per shard (the systems hold no
// state across trials). Heisenbug cells run serially: faults::heisenbug
// shares one unsynchronised util::Rng between the versions of a cell.
//
// Two threads do the work, each pinned to its own core: the main thread,
// which runs the serial cells and helps with the parallel ones, and the
// pool's one worker (run.py sets REDUNDANCY_THREADS=1). Throughput and CPU
// per trial are medians over the timed rounds, so a round that a host
// stall slowed down does not move them. The cell latency is each cell's
// median over the rounds, summarised by the geometric mean over the cells:
// the cells' times differ by 20x, and a plain median over all of them
// jumped between cells whenever their order near the middle changed.
//
// Checks, none of them timing-dependent:
//   * every trial is judged again by a wrapper against the benchmark's own
//     oracle, and those counts must equal the campaign report's;
//   * the Table-2 shape (shape.hpp) holds in every round;
//   * after the timed phase, run_campaign_parallel and run_campaign report
//     the same counts for the same seed on a prefix of each Bohrbug cell.
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign_cells.hpp"
#include "faults/campaign.hpp"
#include "faults/fault.hpp"
#include "obs/obs.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace redundancy;

namespace {

/// Trials per cell: large enough that every Wilson interval the shape
/// check compares is separated by several standard deviations.
constexpr std::size_t kTrials = 20000;
/// Prefix of each Bohrbug cell re-run serially for the equivalence check.
constexpr std::size_t kPrefix = 500;
/// Shards of a parallel cell: one for the pool worker, one for the main
/// thread, which helps while it waits.
constexpr std::size_t kShards = 2;

std::uint64_t cell_seed(std::uint64_t seed, std::uint64_t round,
                        std::size_t cell) {
  Rng r{seed * 0x9e3779b97f4a7c15ULL ^ (round << 20) ^ cell};
  return r.next();
}

struct OwnTally {
  std::size_t requests = 0, correct = 0, wrong = 0, detected = 0;
};

/// Wraps a system so every trial is also judged by the benchmark's oracle.
System judged(System system, std::shared_ptr<OwnTally> tally) {
  return [system = std::move(system), tally](const In& x) {
    core::Result<Out> r = system(x);
    ++tally->requests;
    if (!r.has_value()) {
      ++tally->detected;
    } else if (r.value() == oracle(x)) {
      ++tally->correct;
    } else {
      ++tally->wrong;
    }
    return r;
  };
}

auto workload() {
  return [](std::size_t, util::Rng& rng) {
    return static_cast<In>(rng() >> 34);
  };
}

struct CellRun {
  faults::CampaignReport report;
  OwnTally own;
};

CellRun run_cell(const Technique& t, FaultKind kind, std::size_t trials,
                 std::uint64_t seed, bool parallel) {
  CellRun out;
  std::vector<std::shared_ptr<OwnTally>> tallies;
  const std::string name = t.name + "/" + kind_name(kind);
  if (parallel) {
    out.report = faults::run_campaign_parallel<In, Out>(
        name, trials, workload(),
        [&]() -> System {
          tallies.push_back(std::make_shared<OwnTally>());
          return judged(t.make(kind, nullptr), tallies.back());
        },
        oracle, seed, kShards);
  } else {
    tallies.push_back(std::make_shared<OwnTally>());
    const auto rng = std::make_shared<util::Rng>(seed ^ 0x5eedULL);
    out.report = faults::run_campaign<In, Out>(
        name, trials, workload(), judged(t.make(kind, rng), tallies.back()),
        oracle, seed);
  }
  for (const auto& tally : tallies) {
    out.own.requests += tally->requests;
    out.own.correct += tally->correct;
    out.own.wrong += tally->wrong;
    out.own.detected += tally->detected;
  }
  return out;
}

/// Trials on which the campaign report and the benchmark's oracle
/// disagree: at least the largest gap between their counts.
std::size_t misjudged_trials(const faults::CampaignReport& r, const OwnTally& t) {
  const auto gap = [](std::size_t a, std::size_t b) { return a > b ? a - b : b - a; };
  return std::max({gap(r.requests, t.requests), gap(r.correct, t.correct),
                   gap(r.wrong, t.wrong), gap(r.detected, t.detected)});
}

std::uint64_t counter_total(const std::string& key) {
  for (const auto& [name, value] :
       obs::MetricsRegistry::instance().counter_totals()) {
    if (name == key) return value;
  }
  return 0;
}

obs::HistogramSnapshot histogram_of(const std::string& key) {
  for (const auto& [name, snap] :
       obs::MetricsRegistry::instance().histogram_snapshots()) {
    if (name == key) return snap;
  }
  return {};
}

/// Trace-mode sink: serialises every record as the JSONL trace sink does
/// and counts spans, but keeps nothing — a campaign emits millions of
/// spans a second, far more than a trace file should hold.
class CountingSink final : public obs::TraceSink {
 public:
  void on_span(const obs::SpanRecord& span) override {
    bytes.fetch_add(obs::to_jsonl(span).size(), std::memory_order_relaxed);
    spans.fetch_add(1, std::memory_order_relaxed);
    if (span.name == "variant" || span.name == "alternative") {
      variant_spans.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void on_adjudication(const obs::AdjudicationEvent& event) override {
    bytes.fetch_add(obs::to_jsonl(event).size(), std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> spans{0}, variant_spans{0}, bytes{0};
};

/// Without --launch-ns, `perfbench campaign` starts the campaign as a
/// child with the same flags plus --launch-ns and returns its exit code.
/// The campaign's set-up is thus timed from a spawn by a process already
/// running, as the gateway server's is by the load generator, and the
/// caller's own process start stays out of it.
int spawn_campaign(int argc, char** argv) {
  std::vector<std::string> args{"campaign"};
  for (int i = 0; i < argc; ++i) args.emplace_back(argv[i]);
  args.emplace_back("--launch-ns");
  cache_own_image();
  args.push_back(std::to_string(now_ns()));
  const pid_t pid = spawn_self(args, -1);
  if (pid < 0) return 1;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

}  // namespace

int campaign_main(int argc, char** argv) {
  const std::uint64_t main_ns = now_ns();
  Args args{argc, argv};
  const std::uint64_t seed = args.u64("--seed");
  const double warmup_s = args.num("--warmup");
  const double seconds = args.num("--seconds");
  const bool trace = args.u64("--trace") != 0;
  const std::string cpus = args.str("--cpus");
  if (!args.ok()) return 2;
  if (!args.has("--launch-ns")) {
    // Spawn from one CPU, so the child starts on the CPU the spawn leaves
    // free instead of waking an idle one (as the load generator does).
    pin_self(cpus.substr(0, cpus.find(',')));
    return spawn_campaign(argc, argv);
  }
  const std::vector<int> cpu_list = pin_self(cpus);
  const std::uint64_t launch_ns = args.u64("--launch-ns");
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  const auto sink = std::make_shared<CountingSink>();
  if (trace) {
    auto& recorder = obs::Recorder::instance();
    recorder.add_sink(sink);
    recorder.set_sample_every(1);
    recorder.set_enabled(true);
  }

  // Every judged trial counts as attempted; the misjudged ones failed.
  std::size_t attempted = 1, misjudged = 0;
  // Set-up: the pool and the first cell's system, then one verified trial.
  auto& pool = util::ThreadPool::shared();
  const std::vector<Technique> techniques = all_techniques();
  {
    util::Rng rng{seed};
    const In x = workload()(0, rng);
    const core::Result<Out> r = techniques[0].make(FaultKind::bohrbug, nullptr)(x);
    const bool ok = r.has_value() ? r.value() == oracle(x)
                                  : faults::input_position(x, 1) < kRate;
    if (!ok) {
      std::fprintf(stderr, "campaign: first trial misjudged\n");
      ++misjudged;
    }
  }
  const std::uint64_t first_verified_ns = now_ns();
  // Each thread on its own core, outside the timed set-up: the workers on
  // cpus[1..], the main thread on cpus[0].
  if (pin_workers(pool, cpu_list).empty() ||
      !pin_thread(::syscall(SYS_gettid), cpu_list.front())) {
    std::fprintf(stderr, "campaign: cannot pin threads to --cpus\n");
    return 2;
  }

  std::uint64_t round = 0;
  std::size_t trials = 0, shape_failures = 0;
  std::vector<std::uint64_t> cell_ns;
  std::vector<std::vector<double>> cell_ns_by_cell;  // [cell][timed round]
  std::vector<double> round_ops_per_s, round_cpu_ns_per_trial;
  std::map<std::string, std::uint64_t> technique_ns;
  std::vector<CellResult> first_round;
  auto run_round = [&](bool timed) {
    const std::uint64_t round_t0 = now_ns();
    const std::uint64_t round_cpu0 = process_cpu_self_ns();
    std::size_t round_trials = 0;
    std::vector<CellResult> cells;
    std::size_t index = 0;
    for (const auto& t : techniques) {
      for (const FaultKind kind : t.kinds) {
        const std::uint64_t t0 = now_ns();
        const CellRun run = run_cell(t, kind, kTrials, cell_seed(seed, round, index++),
                                     kind == FaultKind::bohrbug);
        const std::uint64_t dt = now_ns() - t0;
        attempted += run.report.requests;
        misjudged += misjudged_trials(run.report, run.own);
        cells.push_back({t.name, kind, run.report.requests, run.report.correct});
        if (timed) {
          if (cell_ns_by_cell.size() < index) cell_ns_by_cell.resize(index);
          cell_ns_by_cell[index - 1].push_back(static_cast<double>(dt));
          cell_ns.push_back(dt);
          technique_ns[t.name] += dt;
          trials += run.report.requests;
          round_trials += run.report.requests;
        }
      }
    }
    if (timed) {
      const auto wall = static_cast<double>(now_ns() - round_t0);
      const auto cpu = static_cast<double>(process_cpu_self_ns() - round_cpu0);
      const auto n = static_cast<double>(round_trials);
      round_ops_per_s.push_back(n * 1e9 / wall);
      round_cpu_ns_per_trial.push_back(cpu / n);
    }
    const auto violations = shape_violations(cells);
    for (const auto& v : violations) {
      std::fprintf(stderr, "campaign: round %llu: %s\n",
                   static_cast<unsigned long long>(round), v.c_str());
    }
    if (!violations.empty()) ++shape_failures;
    if (first_round.empty()) first_round = cells;
    ++round;
  };

  const std::uint64_t warm_end = now_ns() + static_cast<std::uint64_t>(warmup_s * 1e9);
  do run_round(false); while (now_ns() < warm_end);

  const std::uint64_t tasks0 = counter_total("pool.tasks_executed");
  const std::uint64_t steals0 = counter_total("pool.tasks_stolen");
  const obs::HistogramSnapshot exec0 = histogram_of("pool.task_exec_ns");
  obs::Recorder::instance().flush();
  const std::uint64_t spans0 = sink->spans.load(), variants0 = sink->variant_spans.load();
  const std::uint64_t cpu0 = process_cpu_self_ns();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t timed_rounds = 0;
  do {
    run_round(true);
    ++timed_rounds;
  } while (now_ns() < end);
  const std::uint64_t elapsed = now_ns() - t0;
  const std::uint64_t cpu = process_cpu_self_ns() - cpu0;
  obs::Recorder::instance().flush();
  const std::uint64_t spans = sink->spans.load() - spans0;
  const std::uint64_t variant_spans = sink->variant_spans.load() - variants0;
  const std::uint64_t tasks = counter_total("pool.tasks_executed") - tasks0;
  const std::uint64_t steals = counter_total("pool.tasks_stolen") - steals0;
  const obs::HistogramSnapshot exec = histogram_of("pool.task_exec_ns").diff(exec0);

  // Serial and parallel runners must agree on the same seed.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < techniques.size(); ++i) {
    if (techniques[i].kinds.front() != FaultKind::bohrbug) continue;
    const std::uint64_t s = cell_seed(seed, 1ULL << 40, i);
    const CellRun par = run_cell(techniques[i], FaultKind::bohrbug, kPrefix, s, true);
    const CellRun ser = run_cell(techniques[i], FaultKind::bohrbug, kPrefix, s, false);
    if (par.report.correct != ser.report.correct ||
        par.report.wrong != ser.report.wrong ||
        par.report.detected != ser.report.detected) {
      std::fprintf(stderr, "campaign: %s parallel and serial counts differ\n",
                   techniques[i].name.c_str());
      ++mismatches;
    }
  }
  obs::Recorder::instance().flush();

  Json j;
  j.field("setup_ns", first_verified_ns - launch_ns);
  j.field("launch_to_main_ns", main_ns - launch_ns);
  j.field("pool", pool.size());
  j.field("rounds", timed_rounds);
  std::size_t cells_per_round = 0;
  for (const auto& t : techniques) cells_per_round += t.kinds.size();
  j.field("cells_per_round", cells_per_round);
  j.field("trials_per_cell", kTrials);
  j.field("trials", trials);
  j.field("attempted", attempted);
  j.field("failed", misjudged);
  j.field("shape_failures", shape_failures);
  j.field("equivalence_mismatches", mismatches);
  j.field("elapsed_ns", elapsed);
  j.field("cpu_ns", cpu);
  j.field("round_ops_per_s", median(round_ops_per_s));
  j.field("round_cpu_ns_per_trial", median(round_cpu_ns_per_trial));
  double log_sum = 0;
  for (auto& times : cell_ns_by_cell) log_sum += std::log(median(times));
  j.field("cell_median_geomean_ns",
          std::exp(log_sum / static_cast<double>(cell_ns_by_cell.size())));
  j.field("cell_p50_ns", quantile(cell_ns, 0.5));
  j.field("cell_p90_ns", quantile(cell_ns, 0.9));
  j.field("spans", spans);
  j.field("variant_spans", variant_spans);
  j.field("pool_tasks", tasks);
  j.field("pool_steals", steals);
  j.field("pool_task_exec_p50_ns", exec.percentile(50.0));
  Json per_technique;
  for (const auto& [name, ns] : technique_ns) {
    std::size_t cells = 0;
    for (const auto& t : techniques) {
      if (t.name == name) cells = t.kinds.size();
    }
    per_technique.field(name, static_cast<double>(ns) /
                                  static_cast<double>(cells * kTrials * timed_rounds));
  }
  j.raw("technique_ns_per_trial", per_technique.str());
  Json survival;
  for (const auto& c : first_round) {
    survival.field(c.technique + "/" + kind_name(c.kind),
                   static_cast<double>(c.correct) / static_cast<double>(c.trials));
  }
  j.raw("first_round_survival", survival.str());
  std::printf("%s\n", j.str().c_str());
  return misjudged == 0 && shape_failures == 0 && mismatches == 0 ? 0 : 1;
}

}  // namespace perfbench
