// Small helpers shared by the perfbench subcommands: the clock, flag
// parsing, exact quantiles, CPU time read from /proc, thread pinning,
// process spawning and a flat JSON line.
#pragma once

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "util/thread_pool.hpp"

namespace perfbench {

/// CLOCK_MONOTONIC in ns: the same clock as Python's time.monotonic(), so
/// run.py can subtract a launch time taken in another process.
inline std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline std::uint64_t process_cpu_self_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// On-CPU time of every thread of process `pid`, in ns, summed from
/// /proc/<pid>/task/*/schedstat (read from outside the process).
inline std::uint64_t process_cpu_ns(long pid) {
  std::uint64_t total = 0;
  std::error_code ec;
  const std::filesystem::path tasks =
      "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in{entry.path() / "schedstat"};
    std::uint64_t ns = 0;
    if (in >> ns) total += ns;
  }
  return total;
}

/// Restrict the calling thread (and the threads it creates later) to
/// `cpus`, a comma-separated list such as "0,1,2".
inline std::vector<int> pin_self(const std::string& list) {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t pos = 0;
  while (pos < list.size()) {
    const std::size_t comma = list.find(',', pos);
    cpus.push_back(std::atoi(list.substr(pos, comma - pos).c_str()));
    CPU_SET(cpus.back(), &set);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (cpus.empty() || ::sched_setaffinity(0, sizeof set, &set) != 0) {
    std::fprintf(stderr, "perfbench: cannot pin to cpus '%s'\n", list.c_str());
    std::exit(2);
  }
  return cpus;
}

inline bool pin_thread(long tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(static_cast<pid_t>(tid), sizeof set, &set) == 0;
}

/// Pin pool worker i to cpus[(1 + i) % cpus.size()], leaving cpus[0] to
/// the caller: one task per worker, held at a latch until every worker has
/// taken one, pins the thread it runs on. Returns the workers' thread ids,
/// or an empty set when a pin failed.
inline std::set<long> pin_workers(redundancy::util::ThreadPool& pool,
                                  const std::vector<int>& cpus) {
  const std::size_t n = pool.size();
  std::latch all_started{static_cast<std::ptrdiff_t>(n)};
  std::vector<long> tids(n, 0);
  std::atomic<bool> ok{true};
  std::vector<std::future<void>> done;
  for (std::size_t i = 0; i < n; ++i) {
    done.push_back(pool.submit([&, i] {
      all_started.arrive_and_wait();
      tids[i] = ::syscall(SYS_gettid);
      if (!pin_thread(tids[i], cpus[(1 + i) % cpus.size()])) ok = false;
    }));
  }
  for (auto& f : done) f.get();
  if (!ok) return {};
  return {tids.begin(), tids.end()};
}

/// Read this executable's whole file once, so that the set-up timed after
/// it starts a copy from the page cache. On a shared host the cache may
/// have been trimmed since the last run; a set-up that first has to fault
/// the binary in from disk takes tens of milliseconds, not ~1.5 ms.
inline void cache_own_image() {
  const int fd = ::open("/proc/self/exe", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  std::vector<char> buf(1 << 20);
  while (::read(fd, buf.data(), buf.size()) > 0) {
  }
  ::close(fd);
}

/// Start this executable again with `args` after argv[0] and standard
/// output on `stdout_fd` (inherited when -1). The child starts with the
/// calling thread's CPU affinity. Returns its pid, or -1.
inline pid_t spawn_self(const std::vector<std::string>& args, int stdout_fd) {
  std::vector<char*> argv{const_cast<char*>("perfbench")};
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  if (stdout_fd >= 0) {
    ::posix_spawn_file_actions_adddup2(&actions, stdout_fd, STDOUT_FILENO);
  }
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

/// Value at quantile q in [0, 1] (nearest rank); 0 when empty. Reorders v.
inline std::uint64_t quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

/// Median of `v` (upper middle for an even count); 0 when empty. Reorders v.
inline double median(std::vector<double>& v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// "--flag value" pairs; missing or malformed flags are reported once.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  std::string str(const char* flag) {
    for (int i = 0; i + 1 < argc_; ++i) {
      if (flag == std::string{argv_[i]}) return argv_[i + 1];
    }
    std::fprintf(stderr, "perfbench: missing %s\n", flag);
    ok_ = false;
    return {};
  }
  std::uint64_t u64(const char* flag) {
    const std::string s = str(flag);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0') ok_ = false;
    return v;
  }
  double num(const char* flag) {
    const std::string s = str(flag);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0') ok_ = false;
    return v;
  }
  [[nodiscard]] bool has(const char* flag) const {
    for (int i = 0; i < argc_; ++i) {
      if (flag == std::string{argv_[i]}) return true;
    }
    return false;
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  int argc_;
  char** argv_;
  bool ok_ = true;
};

/// One flat JSON object, built field by field.
class Json {
 public:
  template <typename T>
  void field(const std::string& key, const T& value) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"" + key + "\":";
    if constexpr (std::is_same_v<T, bool>) {
      out_ += value ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.9g", value);
      out_ += buf;
    } else if constexpr (std::is_arithmetic_v<T>) {
      out_ += std::to_string(value);
    } else {
      out_ += "\"" + std::string(value) + "\"";
    }
  }
  /// Embed an already-serialised JSON value.
  void raw(const std::string& key, const std::string& json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"" + key + "\":" + json;
  }
  [[nodiscard]] std::string str() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

}  // namespace perfbench
