// `perfbench server`: the system under test for the gateway workloads — a
// net::Gateway with the program's demo routes, one reactor loop and the
// shared pool sized by REDUNDANCY_THREADS (set by run.py), so neither
// count follows the machine. With REDUNDANCY_OBS_TRACE_FILE set, the
// program's recorder is switched on through start_live_telemetry_from_env.
// Started by the load generator (loadgen.cpp) with --parent <its pid>; it
// is killed when that process dies. Prints "READY <port>"
// once serving; on SIGTERM stops and prints the jobs still in flight,
// exiting non-zero unless that count is zero.
//
// With --cpus a,b,c every thread gets a fixed core: the reactor loop (and
// the idle main thread) on a, pool worker i on the next ones. Left to the
// scheduler, the mostly idle workers were often placed on the loop's core
// and preempted it, which moved /echo throughput by up to 40% between
// otherwise identical runs.
#include <sys/prctl.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/live_telemetry.hpp"
#include "net/gateway.hpp"
#include "util/thread_pool.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {
volatile std::sig_atomic_t g_stop = 0;
void on_term(int) { g_stop = 1; }

/// Every thread that is not a pool worker (the main thread and the
/// reactor loop) goes on the first core.
bool pin_others(const std::set<long>& workers, int cpu) {
  bool ok = true;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const long tid = std::atol(entry.path().filename().c_str());
    if (workers.count(tid) == 0 && !pin_thread(tid, cpu)) ok = false;
  }
  return ok && !ec;
}
}  // namespace

int server_main(int argc, char** argv) {
  using namespace redundancy;
  const std::uint64_t main_ns = now_ns();
  std::uint16_t port = 0;
  std::vector<int> cpus;
  for (int i = 0; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--port") {
      port = static_cast<std::uint16_t>(std::strtoul(argv[i + 1], nullptr, 10));
    } else if (flag == "--cpus") {
      cpus = pin_self(argv[i + 1]);
    } else if (flag == "--parent") {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != std::atol(argv[i + 1])) return 1;  // already gone
    } else {
      std::fprintf(stderr, "server: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  std::signal(SIGTERM, on_term);
  std::signal(SIGINT, on_term);

  const auto telemetry = core::start_live_telemetry_from_env();
  (void)util::ThreadPool::shared();  // start the workers before serving

  net::Gateway::Options options;
  options.conn.port = port;
  options.conn.max_pipeline = kServerMaxPipeline;
  options.loops = 1;
  options.ops_cache_ttl_ms = 0;  // every /metrics scrape is a fresh render
  net::Gateway gateway{options};
  net::install_demo_routes(gateway);
  if (!gateway.start()) {
    std::fprintf(stderr, "server: cannot listen on port %u\n", port);
    return 1;
  }
  // The pinning is the benchmark's own work: its time is reported apart
  // and taken out of the set-up time.
  const std::uint64_t pin_start_ns = now_ns();
  if (!cpus.empty()) {
    const std::set<long> workers = pin_workers(util::ThreadPool::shared(), cpus);
    if (workers.empty() || !pin_others(workers, cpus.front())) {
      std::fprintf(stderr, "server: cannot pin threads to --cpus\n");
      return 1;
    }
  }
  const std::uint64_t ready_ns = now_ns();
  std::printf("READY %u pool=%zu loops=%zu backend=%s main_ns=%llu ready_ns=%llu pin_ns=%llu\n",
              gateway.port(), util::ThreadPool::shared().size(), gateway.loops(),
              net::EventLoop::backend_name(gateway.backend()),
              static_cast<unsigned long long>(main_ns),
              static_cast<unsigned long long>(ready_ns),
              static_cast<unsigned long long>(ready_ns - pin_start_ns));
  std::fflush(stdout);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  gateway.stop();
  const auto inflight = gateway.jobs_inflight();
  std::printf("JOBS_INFLIGHT %llu\n", static_cast<unsigned long long>(inflight));
  std::fflush(stdout);
  return inflight == 0 ? 0 : 1;
}

}  // namespace perfbench
