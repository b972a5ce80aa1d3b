// The Table-2 shape the campaign workload must reproduce, judged with
// Wilson 95% intervals computed here (not by the program's util::stats).
// A Bohrbug fires on a fixed fraction of the input domain rather than as a
// fresh draw, so no claim asks an interval to contain the nominal rate.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class FaultKind { bohrbug, heisenbug };

inline const char* kind_name(FaultKind k) {
  return k == FaultKind::bohrbug ? "bohrbug" : "heisenbug";
}

/// Survival counts of one technique x fault-class cell.
struct CellResult {
  std::string technique;
  FaultKind kind = FaultKind::bohrbug;
  std::size_t trials = 0;
  std::size_t correct = 0;
};

/// Wilson score interval at 95% for `k` successes out of `n`.
inline std::pair<double, double> wilson95(std::size_t k, std::size_t n) {
  if (n == 0) return {0.0, 1.0};
  const double z = 1.959963984540054;
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(k) / nn;
  const double denom = 1.0 + z * z / nn;
  const double center = (p + z * z / (2.0 * nn)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / nn + z * z / (4.0 * nn * nn)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

/// Techniques Table 2 assigns to development faults: they must lift
/// survival above the unprotected baseline for both fault classes.
inline const std::vector<std::string>& development_techniques() {
  static const std::vector<std::string> names{"nvp", "recovery_blocks",
                                              "data_diversity"};
  return names;
}

/// The claims that fail; empty when the shape holds. A missing cell is a
/// violation too.
inline std::vector<std::string> shape_violations(
    const std::vector<CellResult>& cells) {
  std::vector<std::string> out;
  auto find = [&](const std::string& t, FaultKind k) -> const CellResult* {
    for (const auto& c : cells) {
      if (c.technique == t && c.kind == k) return &c;
    }
    out.push_back("missing cell " + t + "/" + kind_name(k));
    return nullptr;
  };
  auto lo = [](const CellResult* c) { return wilson95(c->correct, c->trials).first; };
  auto hi = [](const CellResult* c) { return wilson95(c->correct, c->trials).second; };
  for (const FaultKind k : {FaultKind::bohrbug, FaultKind::heisenbug}) {
    const CellResult* base = find("baseline", k);
    if (base == nullptr) continue;
    for (const auto& t : development_techniques()) {
      const CellResult* c = find(t, k);
      if (c != nullptr && !(lo(c) > hi(base))) {
        out.push_back(t + "/" + kind_name(k) +
                      " lower bound not above the baseline's upper bound");
      }
    }
  }
  const CellResult* cr_h = find("checkpoint_recovery", FaultKind::heisenbug);
  if (cr_h != nullptr && !(lo(cr_h) >= 0.99)) {
    out.push_back("checkpoint_recovery/heisenbug lower bound below 0.99");
  }
  const CellResult* cr_b = find("checkpoint_recovery", FaultKind::bohrbug);
  const CellResult* nvp_b = find("nvp", FaultKind::bohrbug);
  if (cr_b != nullptr && nvp_b != nullptr && !(hi(cr_b) < lo(nvp_b))) {
    out.push_back(
        "checkpoint_recovery/bohrbug upper bound not below nvp/bohrbug's "
        "lower bound");
  }
  return out;
}

}  // namespace perfbench
