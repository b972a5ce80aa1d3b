// perfbench: the benchmark's subcommands in one executable. run.py is the
// entry point; it starts these as separate processes.
//   server    the gateway under test (server.cpp)
//   load      the load generator and reply checker (loadgen.cpp)
//   campaign  the in-process fault-injection workload (campaign.cpp)
//   probe     single-layer timings for the traced run (probe.cpp)
//   analyze   per-layer numbers of a traced gateway run (analyze.cpp)
//   selftest  the checks' own tests (selftest.cpp)
#include <cstdio>
#include <string>

namespace perfbench {
int server_main(int argc, char** argv);
int load_main(int argc, char** argv);
int campaign_main(int argc, char** argv);
int probe_main(int argc, char** argv);
int analyze_main(int argc, char** argv);
int selftest_main(int argc, char** argv);
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "server") return perfbench::server_main(argc - 2, argv + 2);
  if (cmd == "load") return perfbench::load_main(argc - 2, argv + 2);
  if (cmd == "campaign") return perfbench::campaign_main(argc - 2, argv + 2);
  if (cmd == "probe") return perfbench::probe_main(argc - 2, argv + 2);
  if (cmd == "analyze") return perfbench::analyze_main(argc - 2, argv + 2);
  if (cmd == "selftest") return perfbench::selftest_main(argc - 2, argv + 2);
  std::fprintf(stderr, "usage: perfbench server|load|campaign|probe|analyze|selftest ...\n");
  return 2;
}
