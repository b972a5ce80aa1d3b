// `perfbench selftest`: the benchmark's own checks must be able to fail.
// Each case feeds a checker a bad output and requires a failing verdict,
// next to a control case where the same checker must pass:
//   * replies: a corrupted body, two replies swapped, a missing reply, a
//     non-200 status and broken framing;
//   * campaign: the Table-2 shape with one technique swapped for another.
#include <cstdio>
#include <string>
#include <vector>

#include "campaign_cells.hpp"
#include "checker.hpp"
#include "faults/campaign.hpp"
#include "shape.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool condition, const char* what) {
  std::printf("%s  %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++g_failures;
}

std::string body_of(std::uint64_t value) { return std::to_string(value) + "\n"; }

std::string response(int status, const std::string& body) {
  return "HTTP/1.1 " + std::to_string(status) +
         " OK\r\nContent-Type: text/plain\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: keep-alive\r\n\r\n" + body;
}

void reply_checks() {
  const Op a{Route::fast, 11}, b{Route::vote, 22}, e{Route::echo, 33};
  {
    ConnChecker c;
    c.sent(expected_value(a));
    c.sent(expected_value(e));
    const bool ok = c.reply(200, body_of(hash_chain(11))) == Verdict::ok &&
                    c.reply(200, "33\n") == Verdict::ok && c.outstanding() == 0;
    expect(ok, "control: correct replies in order are accepted");
  }
  {
    ConnChecker c;
    c.sent(expected_value(a));
    std::string corrupted = body_of(hash_chain(11));
    corrupted[0] = corrupted[0] == '1' ? '2' : '1';
    expect(c.reply(200, corrupted) == Verdict::wrong_body,
           "a corrupted body is reported as wrong");
  }
  {
    // The previous round of the chain: a server computing 63 rounds.
    std::uint64_t x = 11;
    for (int i = 0; i < 63; ++i) {
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdULL;
      x ^= x >> 29;
    }
    ConnChecker c;
    c.sent(expected_value(a));
    expect(c.reply(200, body_of(x)) == Verdict::wrong_body,
           "a hash chain one round short is reported as wrong");
  }
  {
    ConnChecker c;
    c.sent(expected_value(a));
    c.sent(expected_value(b));
    const Verdict first = c.reply(200, body_of(hash_chain(22)));
    expect(first == Verdict::out_of_order, "swapped replies are reported out of order");
  }
  {
    ConnChecker c;
    c.sent(expected_value(a));
    c.sent(expected_value(b));
    Tally t;
    t.add(c.reply(200, body_of(hash_chain(11))));
    t.missing = c.outstanding();
    expect(t.failed() == 1 && t.missing == 1, "a missing reply is counted as failed");
  }
  {
    ConnChecker c;
    c.sent(expected_value(e));
    expect(c.reply(500, "33\n") == Verdict::bad_status, "a 500 is reported");
  }
  {
    ConnChecker c;
    expect(c.reply(200, "1\n") == Verdict::unexpected,
           "a reply nobody asked for is reported");
  }
  {
    const std::string wire = response(200, "33\n") + response(200, "44\n");
    const Framed f1 = frame_response(wire);
    const Framed f2 = frame_response(std::string_view(wire).substr(f1.consumed));
    expect(f1.consumed != 0 && f1.body == "33\n" && f2.body == "44\n",
           "control: two pipelined responses frame");
    const std::string one = response(200, "33\n");
    expect(frame_response(one.substr(0, one.size() - 1)).consumed == 0 &&
               frame_response(std::string_view(wire).substr(f1.consumed, 20)).consumed == 0,
           "a truncated response is incomplete, not accepted");
    expect(frame_response("HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").bad &&
               frame_response("HTTP/1.1 200 OK\r\n\r\n").bad &&
               frame_response("HTTP/1.0 2x0 OK\r\nContent-Length: 0\r\n\r\n").bad,
           "broken framing is reported");
  }
}

/// One serial campaign per cell; `techniques` may be tampered with.
std::vector<CellResult> run_matrix(const std::vector<Technique>& techniques,
                                   const std::vector<std::string>& labels) {
  std::vector<CellResult> cells;
  std::uint64_t seed = 100;
  for (std::size_t i = 0; i < techniques.size(); ++i) {
    for (const FaultKind kind : techniques[i].kinds) {
      const auto rng = std::make_shared<rd::util::Rng>(++seed);
      const auto report = rd::faults::run_campaign<In, Out>(
          labels[i], 4000,
          [](std::size_t, rd::util::Rng& r) { return static_cast<In>(r() >> 34); },
          techniques[i].make(kind, kind == FaultKind::heisenbug ? rng : nullptr),
          oracle, seed);
      cells.push_back({labels[i], kind, report.requests, report.correct});
    }
  }
  return cells;
}

void shape_checks() {
  const std::vector<Technique> honest = all_techniques();
  std::vector<std::string> labels;
  std::size_t nvp = 0, cr = 0, baseline = 0;
  for (std::size_t i = 0; i < honest.size(); ++i) {
    labels.push_back(honest[i].name);
    if (honest[i].name == "nvp") nvp = i;
    if (honest[i].name == "checkpoint_recovery") cr = i;
    if (honest[i].name == "baseline") baseline = i;
  }
  expect(shape_violations(run_matrix(honest, labels)).empty(),
         "control: the real techniques give the Table-2 shape");

  std::vector<Technique> swapped = honest;
  swapped[nvp].make = honest[baseline].make;
  expect(!shape_violations(run_matrix(swapped, labels)).empty(),
         "nvp swapped for the unprotected baseline breaks the shape");

  swapped = honest;
  std::swap(swapped[nvp].make, swapped[cr].make);
  expect(!shape_violations(run_matrix(swapped, labels)).empty(),
         "nvp and checkpoint_recovery swapped breaks the shape");

  std::vector<CellResult> missing = run_matrix(honest, labels);
  std::erase_if(missing, [](const CellResult& c) {
    return c.technique == "checkpoint_recovery" && c.kind == FaultKind::heisenbug;
  });
  expect(!shape_violations(missing).empty(), "a missing cell breaks the shape");
}

}  // namespace

int selftest_main(int, char**) {
  reply_checks();
  shape_checks();
  std::printf("%s: %d failing case%s\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
