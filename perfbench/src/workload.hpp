// Seeded inputs for the gateway workloads, and the benchmark's own copy of
// the answers the demo routes must give. Nothing here calls into the
// program: the oracle for /fast and /vote is an independent re-statement of
// the 64-round hash chain, so a wrong body from the server cannot be
// "confirmed" by the server's own code.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's own generator (independent of util::Rng).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// The demo routes' computation, restated: 64 rounds of xorshift-multiply.
inline std::uint64_t hash_chain(std::uint64_t x) {
  for (int i = 0; i < 64; ++i) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 29;
  }
  return x;
}

enum class Route : std::uint8_t { echo, fast, vote };

inline const char* route_path(Route r) {
  switch (r) {
    case Route::echo: return "/echo";
    case Route::fast: return "/fast";
    case Route::vote: return "/vote";
  }
  return "/";
}

/// One request: a route and its integer key.
struct Op {
  Route route = Route::echo;
  std::uint64_t key = 0;
};

/// The body the server must return for `op`: the key for /echo, the hash
/// chain of the key for /fast and /vote, each followed by a newline.
inline std::uint64_t expected_value(const Op& op) {
  return op.route == Route::echo ? op.key : hash_chain(op.key);
}

/// True when `body` is exactly the decimal `value` plus "\n".
inline bool body_matches(std::string_view body, std::uint64_t value) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  const std::size_t n = static_cast<std::size_t>(res.ptr - buf);
  return body.size() == n + 1 && body.back() == '\n' &&
         body.substr(0, n) == std::string_view(buf, n);
}

inline std::string request_bytes(const Op& op) {
  std::string out = "GET ";
  out += route_path(op.route);
  out += "?x=";
  out += std::to_string(op.key);
  out += " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
  return out;
}

/// Workload parameters (see README.md for why each value was chosen).
struct GatewaySpec {
  bool open_loop = false;
  std::size_t connections = 0;
  std::size_t depth = 0;          ///< closed loop: requests kept in flight per connection
  double rate_per_s = 0;          ///< open loop: fixed arrival rate
  double fast_share = 0;          ///< open loop: share of /fast, the rest /vote
  std::size_t zipf_keys = 0;      ///< /fast key population
  double zipf_exponent = 0;
};

inline GatewaySpec echo_saturate_spec() {
  GatewaySpec s;
  s.connections = 8;
  s.depth = 8;
  return s;
}

inline GatewaySpec mix_rate_spec() {
  GatewaySpec s;
  s.open_loop = true;
  s.connections = 8;
  s.rate_per_s = 8000;
  s.fast_share = 0.5;
  s.zipf_keys = 10000;
  s.zipf_exponent = 1.0;
  return s;
}

/// The server's per-connection pipeline limit; it bounds both workloads.
inline constexpr std::size_t kServerMaxPipeline = 8;

/// Deterministic op stream for one workload and seed. Keys stay below 2^63
/// so they round-trip through any signed/unsigned decimal parser.
class OpStream {
 public:
  OpStream(const GatewaySpec& spec, std::uint64_t seed)
      : spec_(spec), rng_(seed * 0x2545f4914f6cdd1dULL + 17) {
    if (spec.zipf_keys > 0) {
      cdf_.reserve(spec.zipf_keys);
      double total = 0;
      for (std::size_t r = 1; r <= spec.zipf_keys; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r), spec.zipf_exponent);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
      key_salt_ = rng_.next();
    }
  }

  Op next() {
    Op op;
    if (!spec_.open_loop) {
      op.route = Route::echo;
      op.key = rng_.next() >> 1;
      return op;
    }
    if (rng_.unit() < spec_.fast_share) {
      op.route = Route::fast;
      op.key = zipf_key(rank(rng_.unit()));
    } else {
      op.route = Route::vote;
      op.key = rng_.next() >> 1;
    }
    return op;
  }

  /// Zipf rank (0 = hottest) for a uniform draw.
  [[nodiscard]] std::size_t rank(double u) const {
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) lo = mid + 1; else hi = mid;
    }
    return lo;
  }

 private:
  std::uint64_t zipf_key(std::size_t rank) const {
    Rng r{key_salt_ ^ (rank * 0x9e3779b97f4a7c15ULL)};
    return r.next() >> 1;
  }

  GatewaySpec spec_;
  Rng rng_;
  std::vector<double> cdf_;
  std::uint64_t key_salt_ = 0;
};

}  // namespace perfbench
