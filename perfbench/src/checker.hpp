// Client-side verdicts on gateway replies. A connection's replies must
// come back in the order its requests were sent, each a 200 whose body is
// the benchmark's own expected value for that request. The checker and the
// response framing are kept free of I/O so the self-test can feed them
// corrupted, reordered and missing replies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string_view>

#include "workload.hpp"

namespace perfbench {

enum class Verdict : std::uint8_t {
  ok,
  bad_status,    ///< any status other than 200
  wrong_body,    ///< body matches no request outstanding on the connection
  out_of_order,  ///< body belongs to a later request on the connection
  unexpected,    ///< a reply with no request outstanding
};

/// Outcome counts over a set of replies. `missing` counts requests that
/// never got a reply.
struct Tally {
  std::uint64_t ok = 0, bad_status = 0, wrong_body = 0, out_of_order = 0,
                unexpected = 0, missing = 0;

  void add(Verdict v) {
    switch (v) {
      case Verdict::ok: ++ok; break;
      case Verdict::bad_status: ++bad_status; break;
      case Verdict::wrong_body: ++wrong_body; break;
      case Verdict::out_of_order: ++out_of_order; break;
      case Verdict::unexpected: ++unexpected; break;
    }
  }
  [[nodiscard]] std::uint64_t failed() const {
    return bad_status + wrong_body + out_of_order + unexpected + missing;
  }
};

/// Expected replies of one connection, oldest first.
class ConnChecker {
 public:
  void sent(std::uint64_t expected) { pending_.push_back(expected); }

  Verdict reply(int status, std::string_view body) {
    if (pending_.empty()) return Verdict::unexpected;
    const std::uint64_t want = pending_.front();
    pending_.pop_front();
    if (status != 200) return Verdict::bad_status;
    if (body_matches(body, want)) return Verdict::ok;
    for (const std::uint64_t later : pending_) {
      if (body_matches(body, later)) return Verdict::out_of_order;
    }
    return Verdict::wrong_body;
  }

  [[nodiscard]] std::size_t outstanding() const { return pending_.size(); }

 private:
  std::deque<std::uint64_t> pending_;
};

/// One framed HTTP/1.1 response found at the front of a buffer.
struct Framed {
  int status = 0;
  std::string_view body;
  std::size_t consumed = 0;  ///< 0: incomplete
  bool bad = false;          ///< unparseable framing
};

/// Frame one response (status line, headers, Content-Length body).
inline Framed frame_response(std::string_view buf) {
  Framed f;
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    f.bad = buf.size() > 8192;
    return f;
  }
  const std::string_view head = buf.substr(0, head_end);
  if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 ") {
    f.bad = true;
    return f;
  }
  int status = 0;
  for (std::size_t i = 9; i < 12; ++i) {
    if (head[i] < '0' || head[i] > '9') {
      f.bad = true;
      return f;
    }
    status = status * 10 + (head[i] - '0');
  }
  std::size_t length = 0;
  bool have_length = false;
  std::size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos < head.size()) {
    const std::size_t eol = head.find("\r\n", pos + 2);
    const std::string_view line =
        head.substr(pos + 2, (eol == std::string_view::npos ? head.size() : eol) -
                                 (pos + 2));
    constexpr std::string_view kName = "content-length:";
    if (line.size() > kName.size()) {
      bool match = true;
      for (std::size_t i = 0; i < kName.size(); ++i) {
        char c = line[i];
        if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
        if (c != kName[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        std::string_view v = line.substr(kName.size());
        while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
        const auto res = std::from_chars(v.data(), v.data() + v.size(), length);
        if (res.ec != std::errc{} || res.ptr != v.data() + v.size()) {
          f.bad = true;
          return f;
        }
        have_length = true;
      }
    }
    pos = eol;
  }
  if (!have_length) {
    f.bad = true;
    return f;
  }
  const std::size_t total = head_end + 4 + length;
  if (buf.size() < total) return f;
  f.status = status;
  f.body = buf.substr(head_end + 4, length);
  f.consumed = total;
  return f;
}

}  // namespace perfbench
