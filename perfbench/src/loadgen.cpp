// `perfbench load`: the single-threaded load generator for the gateway
// workloads. It runs in its own process, on its own core (run.py pins it),
// and drives the server over keep-alive connections:
//
//   closed loop  each connection keeps `depth` requests in flight and sends
//                the next one when a reply arrives (echo_saturate);
//   open loop    requests are due at a fixed rate, round-robin over the
//                connections, and are written when due whatever is still
//                outstanding (mix_rate).
//
// Latency runs from a request's intended send time to the last byte of its
// reply (in the closed loop the intended time is when the slot freed up),
// so a stall also charges the requests that queued behind it. Every reply
// is checked (checker.hpp). Phases: spawn the server, connect and verify
// one request (the end of the server's set-up), warm up, scrape /metrics
// and read the server's CPU, run the timed phase, drain, scrape and read
// again, stop the server and collect its exit status.
//
// The timed phase is cut into 100 ms windows; each window's reply rate,
// median latency and server CPU per reply are kept, and the reported
// figures are medians over the windows. On a shared host the server's
// vCPUs are now and then taken away for milliseconds at a time; a window
// median leaves those stalls out where a whole-run mean or percentile
// takes them in. Whole-run percentiles are reported beside them.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "checker.hpp"
#include "net/loopback_client.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

struct InFlight {
  std::uint64_t intended_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t first_ns = 0;  ///< first byte of the reply seen
  std::uint64_t key = 0;
  std::uint64_t seq = 0;
  Route route = Route::echo;
  bool timed = false;
};

/// One client-side span (trace mode): kept in memory, written at the end.
struct ClientSpan {
  std::uint32_t conn;
  std::uint64_t seq, key;
  std::uint64_t intended_ns, sent_ns, first_ns, last_ns;
  Route route;
};

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;  ///< bytes not yet accepted by the socket
  ConnChecker check;
  std::deque<InFlight> inflight;
  std::size_t unsent = 0;   ///< newest entries of `inflight` not yet flushed
  bool want_write = false;  ///< EPOLLOUT armed: the socket refused bytes
  std::uint64_t next_seq = 0;
};

int connect_once(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// The server under test, started by the generator itself: the generator
/// is already running and pinned when the spawn is timed, so the server's
/// set-up is measured without the generator's own start-up in it. The
/// server's standard output is a pipe. Its READY line, and then the reply
/// to the first request, are awaited spinning on the generator's own core,
/// so no wake-up of an idle CPU is timed with the server's set-up.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { stop(); }

  /// Spawn `perfbench server` for `cpus`; stamps the launch time. The
  /// generator spawns from the first of those CPUs alone, so the child
  /// starts on the CPU the spawn leaves free instead of waking an idle one;
  /// the server then takes all of `cpus` itself.
  bool spawn(const std::string& cpus, std::uint64_t& launch_ns) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return false;
    pin_self(cpus.substr(0, cpus.find(',')));
    cache_own_image();
    launch_ns = now_ns();
    pid_ = spawn_self({"server", "--port", "0", "--cpus", cpus, "--parent",
                       std::to_string(::getpid())},
                      fds[1]);
    ::close(fds[1]);
    out_fd_ = fds[0];
    return pid_ >= 0;
  }

  /// Next line of the server's output, without the newline; false at EOF
  /// or when the server wrote nothing for kQuietMs. With `spin` it polls
  /// without sleeping.
  bool read_line(std::string& line, bool spin = false) {
    const std::uint64_t deadline = now_ns() + kQuietMs * 1'000'000ULL;
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd p{out_fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, spin ? 0 : kQuietMs);
      if (ready < 0 && errno == EINTR) continue;
      if (ready == 0 && spin && now_ns() < deadline) continue;
      if (ready <= 0) return false;
      char chunk[512];
      const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// SIGTERM, then the rest of the output and the exit status. A server
  /// still running when its output has been quiet for kQuietMs is killed.
  void stop() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGTERM);
    std::string line;
    while (read_line(line)) rest_ += line + "\n";
    ::kill(pid_, SIGKILL);  // a no-op on a server that has exited (unreaped)
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    pid_ = -1;
    ::close(out_fd_);
    out_fd_ = -1;
  }

  [[nodiscard]] long pid() const { return pid_; }
  /// Output after READY (valid after stop()).
  [[nodiscard]] const std::string& rest() const { return rest_; }
  int exit_code = -1;

 private:
  static constexpr int kQuietMs = 20'000;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buf_, rest_;
};

class LoadGen {
 public:
  LoadGen(GatewaySpec spec, std::uint64_t seed, bool trace)
      : spec_(spec), stream_(spec, seed), trace_(trace) {}
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;
  ~LoadGen() { close_all(); }

  /// Connect every connection and verify one request on the first; returns
  /// false (with a message) when the server never answered correctly.
  bool start(std::uint16_t port, std::uint64_t& first_verified_ns) {
    port_ = port;
    conns_.resize(spec_.connections);
    Conn& first = conns_[0];
    first.fd = connect_once(port_);
    if (first.fd < 0) return fail("cannot connect");
    const Op op = stream_.next();
    first.check.sent(expected_value(op));
    ++first.next_seq;
    ++sent_total;
    if (!redundancy::net::loopback::send_all(first.fd, request_bytes(op))) {
      return fail("send failed");
    }
    first_sent_ns = now_ns();
    std::string buf;
    char chunk[4096];
    Framed f;
    const std::uint64_t deadline = now_ns() + 20'000'000'000ULL;
    while ((f = frame_response(buf)).consumed == 0) {
      const ssize_t n = ::recv(first.fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EINTR) && now_ns() < deadline) {
        continue;  // spin: see ServerProcess
      }
      if (n <= 0 || f.bad) return fail("first reply missing");
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    const Verdict v = first.check.reply(f.status, f.body);
    tally.add(v);
    if (v != Verdict::ok) return fail("first reply wrong");
    first_verified_ns = now_ns();
    for (std::size_t c = 1; c < conns_.size(); ++c) {
      conns_[c].fd = connect_once(port_);
      if (conns_[c].fd < 0) return fail("cannot connect");
    }
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      ::fcntl(conns_[c].fd, F_SETFL,
              ::fcntl(conns_[c].fd, F_GETFL) | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c;
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, conns_[c].fd, &ev);
    }
    return true;
  }

  /// Run one phase of `duration_ns`, then drain every outstanding reply.
  /// The timed phase records a Window every kWindowNs, reading the CPU
  /// time of process `server_pid` at each boundary.
  bool run_phase(std::uint64_t duration_ns, bool timed, long server_pid) {
    timed_ = timed;
    const std::uint64_t start = now_ns();
    const std::uint64_t end = start + duration_ns;
    sending_ = true;
    if (timed) {
      phase_start_ns = start;
      open_window(start, process_cpu_ns(server_pid));
    }
    if (!spec_.open_loop) {
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        while (conns_[c].inflight.size() < spec_.depth) send(c, now_ns());
      }
      flush();
    }
    const std::uint64_t period_x1e9 = 1'000'000'000ULL;
    std::uint64_t k = 0;
    std::uint64_t drain_deadline = 0;
    epoll_event events[64];
    for (;;) {
      const std::uint64_t now = now_ns();
      if (sending_ && spec_.open_loop) {
        for (;;) {
          const std::uint64_t due =
              start + static_cast<std::uint64_t>(
                          static_cast<double>(k) * period_x1e9 / spec_.rate_per_s);
          if (due > now || due >= end) break;
          send(static_cast<std::size_t>(k % conns_.size()), due);
          ++k;
        }
      }
      if (timed && sending_ && now >= window_end_ && now < end) {
        close_window(now, process_cpu_ns(server_pid));
      }
      if (sending_ && now >= end) {
        sending_ = false;
        drain_deadline = now + 10'000'000'000ULL;
      }
      if (!sending_) {
        if (outstanding() == 0) break;
        if (now > drain_deadline) return fail("replies still missing 10 s after the phase");
      }
      if (!io_error_.empty()) return fail(io_error_);
      const int n = ::epoll_wait(epfd_, events, 64, 0);
      for (int i = 0; i < n; ++i) on_readable(events[i].data.u64);
      flush();
    }
    if (timed) phase_end_ns = last_reply_ns_;
    return true;
  }

  [[nodiscard]] std::size_t outstanding() const {
    std::size_t total = 0;
    for (const auto& c : conns_) total += c.inflight.size();
    return total;
  }

  void close_all() {
    for (auto& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
    if (epfd_ >= 0) ::close(epfd_);
    epfd_ = -1;
  }

  /// One window of the timed phase.
  struct Window {
    std::uint64_t ns = 0;         ///< length
    std::uint64_t ok = 0;         ///< verified replies that arrived in it
    std::uint64_t server_cpu_ns = 0;
    std::uint64_t p50_ns = 0;     ///< median latency of those replies
  };
  static constexpr std::uint64_t kWindowNs = 100'000'000;
  std::vector<Window> windows;

  std::uint64_t first_sent_ns = 0;  ///< the set-up request went out

  /// Verdicts on every reply, the first and the warm-up ones included;
  /// sent_total counts every request sent.
  Tally tally;
  std::uint64_t sent_total = 0;
  // Results of the timed phase.
  std::uint64_t timed_sent = 0, timed_ok = 0, warm_sent = 0;
  std::uint64_t fast_sent = 0, vote_sent = 0;
  std::vector<std::uint64_t> latency_ns, late_ns;
  std::vector<ClientSpan> spans;
  std::uint64_t phase_start_ns = 0, phase_end_ns = 0;
  std::string error;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  bool fail(std::string message) {
    error = std::move(message);
    return false;
  }

  void open_window(std::uint64_t now, std::uint64_t server_cpu_ns) {
    window_start_ = now;
    window_end_ = now + kWindowNs;
    window_ok_ = timed_ok;
    window_first_ = latency_ns.size();
    window_cpu_ = server_cpu_ns;
  }

  void close_window(std::uint64_t now, std::uint64_t server_cpu_ns) {
    std::vector<std::uint64_t> lat(
        latency_ns.begin() + static_cast<std::ptrdiff_t>(window_first_),
        latency_ns.end());
    windows.push_back({now - window_start_, timed_ok - window_ok_,
                       server_cpu_ns - window_cpu_, quantile(lat, 0.5)});
    open_window(now, server_cpu_ns);
  }

  /// Queue the next request on connection `c`; it goes out at the next
  /// flush() together with everything else queued on `c` meanwhile.
  void send(std::size_t c, std::uint64_t intended) {
    Conn& conn = conns_[c];
    const Op op = stream_.next();
    InFlight f;
    f.intended_ns = intended;
    f.key = op.key;
    f.route = op.route;
    f.seq = conn.next_seq++;
    f.timed = timed_;
    conn.check.sent(expected_value(op));
    ++sent_total;
    if (conn.unsent == 0) dirty_.push_back(c);
    ++conn.unsent;
    conn.out += request_bytes(op);
    if (timed_) {
      ++timed_sent;
      if (op.route == Route::fast) ++fast_sent;
      if (op.route == Route::vote) ++vote_sent;
    } else {
      ++warm_sent;
    }
    conn.inflight.push_back(f);
  }

  /// One write per connection with queued requests; stamps their send time.
  void flush() {
    for (const std::size_t c : dirty_) {
      Conn& conn = conns_[c];
      const std::uint64_t t = now_ns();
      for (std::size_t i = conn.inflight.size() - conn.unsent; i < conn.inflight.size(); ++i) {
        InFlight& f = conn.inflight[i];
        f.sent_ns = t;
        if (f.timed) late_ns.push_back(t - f.intended_ns);
      }
      conn.unsent = 0;
      if (!conn.want_write) write_out(c);  // else EPOLLOUT sends it
    }
    dirty_.clear();
  }

  void write_out(std::size_t c) {
    Conn& conn = conns_[c];
    const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      io_error_ = std::string("send: ") + std::strerror(errno);
      return;
    }
    if (n > 0) conn.out.erase(0, static_cast<std::size_t>(n));
    if (!conn.out.empty() && !conn.want_write) {
      conn.want_write = true;
      want_write(c, true);
    } else if (conn.out.empty() && conn.want_write) {
      conn.want_write = false;
      want_write(c, false);
    }
  }

  void want_write(std::size_t c, bool on) {
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conns_[c].fd, &ev);
  }

  void on_readable(std::size_t c) {
    Conn& conn = conns_[c];
    if (conn.want_write) write_out(c);
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
      if (n == 0) {
        io_error_ = "server closed a connection";
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          io_error_ = std::string("recv: ") + std::strerror(errno);
        }
        return;
      }
      const std::uint64_t t = now_ns();
      conn.in.append(chunk, static_cast<std::size_t>(n));
      if (!conn.inflight.empty() && conn.inflight.front().first_ns == 0) {
        conn.inflight.front().first_ns = t;
      }
      std::size_t off = 0;
      for (;;) {
        const Framed f = frame_response(std::string_view(conn.in).substr(off));
        if (f.bad) {
          io_error_ = "unparseable reply";
          return;
        }
        if (f.consumed == 0) break;
        off += f.consumed;
        on_reply(c, f, t);
        if (!conn.inflight.empty() && conn.inflight.front().first_ns == 0 &&
            off < conn.in.size()) {
          conn.inflight.front().first_ns = t;
        }
      }
      conn.in.erase(0, off);
    }
  }

  void on_reply(std::size_t c, const Framed& f, std::uint64_t t) {
    Conn& conn = conns_[c];
    const Verdict v = conn.check.reply(f.status, f.body);
    tally.add(v);
    if (conn.inflight.empty()) return;
    const InFlight done = conn.inflight.front();
    conn.inflight.pop_front();
    if (done.timed) {
      if (v == Verdict::ok) ++timed_ok;
      latency_ns.push_back(t - done.intended_ns);
      last_reply_ns_ = t;
      if (trace_) {
        spans.push_back({static_cast<std::uint32_t>(c), done.seq, done.key,
                         done.intended_ns, done.sent_ns,
                         done.first_ns != 0 ? done.first_ns : t, t,
                         done.route});
      }
    }
    if (sending_ && !spec_.open_loop) send(c, t);
  }

  GatewaySpec spec_;
  OpStream stream_;
  std::uint16_t port_ = 0;
  bool trace_;
  std::vector<Conn> conns_;
  int epfd_ = -1;
  bool sending_ = false;
  bool timed_ = false;
  std::uint64_t last_reply_ns_ = 0;
  std::uint64_t window_start_ = 0, window_end_ = 0, window_ok_ = 0,
                window_cpu_ = 0;
  std::size_t window_first_ = 0;
  std::vector<std::size_t> dirty_;  ///< connections with queued requests
  std::string io_error_;
};

bool scrape(std::uint16_t port, const std::filesystem::path& file) {
  const auto reply = redundancy::net::loopback::http_get(port, "/metrics");
  if (!reply.complete || reply.status != 200) return false;
  std::ofstream out{file};
  out << reply.body;
  return static_cast<bool>(out);
}

}  // namespace

int load_main(int argc, char** argv) {
  Args args{argc, argv};
  const std::string workload = args.str("--workload");
  const std::uint64_t seed = args.u64("--seed");
  const std::string server_cpus = args.str("--server-cpus");
  const double warmup_s = args.num("--warmup");
  const double seconds = args.num("--seconds");
  const std::filesystem::path out_dir = args.str("--out");
  const bool trace = args.u64("--trace") != 0;
  const std::string cpu = args.str("--cpu");
  if (!args.ok()) return 2;
  GatewaySpec spec;
  if (workload == "echo_saturate") {
    spec = echo_saturate_spec();
  } else if (workload == "mix_rate") {
    spec = mix_rate_spec();
  } else {
    std::fprintf(stderr, "load: unknown workload %s\n", workload.c_str());
    return 2;
  }

  // Built before the server starts: the op stream's set-up (the Zipf table
  // of mix_rate) is the benchmark's work, not the server's.
  LoadGen gen{spec, seed, trace};
  ServerProcess server;
  std::uint64_t launch_ns = 0;
  const bool spawned = server.spawn(server_cpus, launch_ns);
  pin_self(cpu);
  std::string ready;
  unsigned port = 0;
  char backend[16] = "?";
  unsigned long long main_ns = 0, ready_ns = 0, pin_ns = 0;
  const bool up =
      spawned && server.read_line(ready, true) &&
      std::sscanf(ready.c_str(),
                  "READY %u %*s %*s backend=%15s main_ns=%llu ready_ns=%llu pin_ns=%llu",
                  &port, backend, &main_ns, &ready_ns, &pin_ns) == 5;

  std::uint64_t first_verified_ns = 0;
  bool ok = up && gen.start(static_cast<std::uint16_t>(port), first_verified_ns) &&
            gen.run_phase(static_cast<std::uint64_t>(warmup_s * 1e9), false, server.pid());
  std::uint64_t cpu0 = 0, cpu1 = 0;
  if (ok) {
    ok = scrape(gen.port(), out_dir / "metrics_before.prom");
    cpu0 = process_cpu_ns(server.pid());
    ok = ok && gen.run_phase(static_cast<std::uint64_t>(seconds * 1e9), true, server.pid());
  }
  if (ok) {
    cpu1 = process_cpu_ns(server.pid());
    ok = scrape(gen.port(), out_dir / "metrics_after.prom");
  }
  gen.tally.missing = gen.outstanding();
  gen.close_all();
  server.stop();
  if (!ok) {
    std::fprintf(stderr, "load: %s\n",
                 !up ? "server did not start"
                 : gen.error.empty() ? "scrape failed" : gen.error.c_str());
  }
  long long jobs_inflight = -1;
  const std::size_t at = server.rest().find("JOBS_INFLIGHT ");
  if (at != std::string::npos) {
    jobs_inflight = std::atoll(server.rest().c_str() + at + 14);
  }
  if (trace && ok) {
    std::ofstream spans{out_dir / "client_spans.tsv"};
    spans << "conn\tseq\tkey\troute\tintended_ns\tsent_ns\tfirst_ns\tlast_ns\n";
    for (const auto& s : gen.spans) {
      spans << s.conn << '\t' << s.seq << '\t' << s.key << '\t'
            << route_path(s.route) << '\t' << s.intended_ns << '\t'
            << s.sent_ns << '\t' << s.first_ns << '\t' << s.last_ns << '\n';
    }
  }
  Json j;
  j.field("ok", ok);
  j.field("backend", backend);
  // The server's thread pinning is the benchmark's work, not the program's.
  j.field("setup_ns", first_verified_ns != 0 ? first_verified_ns - launch_ns - pin_ns : 0);
  j.field("launch_to_main_ns", up ? main_ns - launch_ns : 0);
  j.field("main_to_ready_ns", up ? ready_ns - main_ns - pin_ns : 0);
  j.field("pin_ns", pin_ns);
  j.field("ready_to_sent_ns", up && gen.first_sent_ns != 0 ? gen.first_sent_ns - ready_ns : 0);
  j.field("sent_to_verified_ns",
          first_verified_ns != 0 ? first_verified_ns - gen.first_sent_ns : 0);
  j.field("server_exit", server.exit_code);
  j.field("jobs_inflight", jobs_inflight);
  j.field("attempted", gen.sent_total);
  j.field("failed", gen.tally.failed());
  j.field("replies_ok", gen.tally.ok);
  j.field("bad_status", gen.tally.bad_status);
  j.field("wrong_body", gen.tally.wrong_body);
  j.field("out_of_order", gen.tally.out_of_order);
  j.field("unexpected", gen.tally.unexpected);
  j.field("missing", gen.tally.missing);
  j.field("sent", gen.timed_sent);
  j.field("timed_ok", gen.timed_ok);
  j.field("warm_sent", gen.warm_sent);
  j.field("fast_sent", gen.fast_sent);
  j.field("vote_sent", gen.vote_sent);
  j.field("elapsed_ns", gen.phase_end_ns - gen.phase_start_ns);
  j.field("server_cpu_ns", cpu1 - cpu0);
  // Medians over the windows. A window without a reply counts as one whose
  // median latency is its whole length and whose CPU went to one reply.
  std::vector<double> rate, p50, cpu_per_op;
  for (const auto& w : gen.windows) {
    const double ok = static_cast<double>(std::max<std::uint64_t>(w.ok, 1));
    rate.push_back(static_cast<double>(w.ok) * 1e9 / static_cast<double>(w.ns));
    p50.push_back(static_cast<double>(w.ok != 0 ? w.p50_ns : w.ns));
    cpu_per_op.push_back(static_cast<double>(w.server_cpu_ns) / ok);
  }
  j.field("windows", gen.windows.size());
  j.field("win_ops_per_s", median(rate));
  j.field("win_lat_p50_ns", median(p50));
  j.field("win_cpu_ns_per_op", median(cpu_per_op));
  j.field("lat_p50_ns", quantile(gen.latency_ns, 0.50));
  j.field("lat_p90_ns", quantile(gen.latency_ns, 0.90));
  j.field("lat_p99_ns", quantile(gen.latency_ns, 0.99));
  j.field("lat_p999_ns", quantile(gen.latency_ns, 0.999));
  j.field("lat_max_ns", quantile(gen.latency_ns, 1.0));
  j.field("late_p50_ns", quantile(gen.late_ns, 0.50));
  j.field("late_p99_ns", quantile(gen.late_ns, 0.99));
  std::printf("%s\n", j.str().c_str());
  return ok && gen.tally.failed() == 0 && server.exit_code == 0 && jobs_inflight == 0
             ? 0 : 1;
}

}  // namespace perfbench
