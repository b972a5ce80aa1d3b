// The techniques of the campaign workload, each as a factory of systems
// under test for one fault class. The "correct version" the faults decorate
// is `implementation`; trials are judged by `oracle`, the benchmark's own
// statement of the same function.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "env/checkpoint.hpp"
#include "env/simenv.hpp"
#include "faults/fault.hpp"
#include "shape.hpp"
#include "techniques/checkpoint_recovery.hpp"
#include "techniques/data_diversity.hpp"
#include "techniques/microreboot.hpp"
#include "techniques/nvp.hpp"
#include "techniques/process_pair.hpp"
#include "techniques/recovery_blocks.hpp"
#include "techniques/rx.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace rd = redundancy;

using In = std::int64_t;
using Out = std::int64_t;
using System = std::function<rd::core::Result<Out>(const In&)>;

/// Activation rate of every injected fault.
inline constexpr double kRate = 0.15;

inline Out oracle(const In& x) { return 3 * x + 1; }
inline Out implementation(const In& x) { return x + x + x + 1; }

/// A technique: builds one system for a fault class. Heisenbug systems get
/// the cell's shared generator; Bohrbug systems get null.
struct Technique {
  std::string name;
  std::function<System(FaultKind, std::shared_ptr<rd::util::Rng>)> make;
  /// The fault classes it has a cell for.
  std::vector<FaultKind> kinds{FaultKind::bohrbug, FaultKind::heisenbug};
};

namespace cells_detail {

/// Program state with nothing in it: the checkpointing techniques need a
/// subject, the campaign's function is pure.
class NoState final : public rd::env::Checkpointable {
 public:
  [[nodiscard]] rd::util::ByteBuffer snapshot() const override { return {}; }
  void restore(const rd::util::ByteBuffer&) override {}
};

inline bool fires(FaultKind kind, const In& x, std::uint64_t salt,
                  const std::shared_ptr<rd::util::Rng>& rng) {
  return kind == FaultKind::bohrbug ? rd::faults::input_position(x, salt) < kRate
                                    : rng->chance(kRate);
}

/// Three faulty versions. Bohrbug versions fail on independent input
/// regions with distinct wrong answers; Heisenbug versions crash on fresh
/// draws from the shared generator.
inline std::vector<rd::core::Variant<In, Out>> versions(
    FaultKind kind, const std::shared_ptr<rd::util::Rng>& rng) {
  std::vector<rd::core::Variant<In, Out>> vs;
  for (int i = 0; i < 3; ++i) {
    rd::faults::FaultInjector<In, Out> v{"v" + std::to_string(i), implementation};
    if (kind == FaultKind::bohrbug) {
      v.add(rd::faults::bohrbug<In, Out>(
          "b", kRate, 800 + static_cast<std::uint64_t>(i),
          rd::core::FailureKind::wrong_output,
          rd::faults::skewed<In, Out>(i + 1)));
    } else {
      v.add(rd::faults::heisenbug<In, Out>("h", kRate, rng));
    }
    vs.push_back(v.as_variant());
  }
  return vs;
}

/// Runs `op` under a status-returning technique and maps it back to a value.
template <typename Run>
rd::core::Result<Out> status_system(Run&& run, FaultKind kind, const In& x,
                                    std::uint64_t salt,
                                    const std::shared_ptr<rd::util::Rng>& rng) {
  Out out = 0;
  auto status = run([&]() -> rd::core::Status {
    if (fires(kind, x, salt, rng)) {
      return rd::core::failure(rd::core::FailureKind::crash, "fault");
    }
    out = implementation(x);
    return rd::core::ok_status();
  });
  if (!status.has_value()) return status.error();
  return out;
}

}  // namespace cells_detail

/// The cells' techniques in the order the campaign runs them. The first
/// is the unprotected baseline.
inline std::vector<Technique> all_techniques() {
  using namespace cells_detail;
  using RngPtr = std::shared_ptr<rd::util::Rng>;
  std::vector<Technique> ts;
  ts.push_back({"baseline", [](FaultKind k, RngPtr rng) -> System {
                  return [k, rng](const In& x) -> rd::core::Result<Out> {
                    if (fires(k, x, 1, rng)) {
                      return rd::core::failure(rd::core::FailureKind::crash, "fault");
                    }
                    return implementation(x);
                  };
                }});
  ts.push_back({"nvp", [](FaultKind k, RngPtr rng) -> System {
                  auto nvp = std::make_shared<
                      rd::techniques::NVersionProgramming<In, Out>>(versions(k, rng));
                  return [nvp](const In& x) { return nvp->run(x); };
                }});
  ts.push_back({"recovery_blocks", [](FaultKind k, RngPtr rng) -> System {
                  auto rb = std::make_shared<rd::techniques::RecoveryBlocks<In, Out>>(
                      versions(k, rng),
                      [](const In& x, const Out& out) { return out == implementation(x); });
                  return [rb](const In& x) { return rb->run(x); };
                }});
  ts.push_back({"data_diversity", [](FaultKind k, RngPtr rng) -> System {
                  // One program with an input-region (or transient) fault;
                  // re-expressions shift the input and recover the output
                  // exactly, since the function is affine.
                  auto program = [k, rng](const In& x) -> rd::core::Result<Out> {
                    if (fires(k, x, 321, rng)) {
                      return rd::core::failure(rd::core::FailureKind::crash, "fault");
                    }
                    return implementation(x);
                  };
                  std::vector<rd::techniques::ReExpression<In, Out>> res{
                      rd::techniques::identity_reexpression<In, Out>(),
                      {"x+1", [](const In& x) { return x + 1; },
                       [](const In&, const Out& out) { return out - 3; }},
                      {"x+2", [](const In& x) { return x + 2; },
                       [](const In&, const Out& out) { return out - 6; }}};
                  auto retry = std::make_shared<rd::techniques::RetryBlock<In, Out>>(
                      program, res,
                      [](const In& x, const Out& out) { return out == implementation(x); });
                  return [retry](const In& x) { return retry->run(x); };
                }});
  ts.push_back({"checkpoint_recovery", [](FaultKind k, RngPtr rng) -> System {
                  struct Held {
                    NoState state;
                    rd::techniques::CheckpointRecovery cr{
                        state, {.checkpoint_every = 1, .max_retries = 4}};
                  };
                  auto held = std::make_shared<Held>();
                  return [held, k, rng](const In& x) {
                    return status_system(
                        [&](const auto& op) { return held->cr.run(op); }, k, x, 654, rng);
                  };
                }});
  ts.push_back({"process_pair", [](FaultKind k, RngPtr rng) -> System {
                  struct Held {
                    NoState state;
                    rd::techniques::ProcessPair pair{
                        state, {.ship_every = 1, .max_takeovers = 2}};
                  };
                  auto held = std::make_shared<Held>();
                  return [held, k, rng](const In& x) {
                    return status_system(
                        [&](const auto& op) { return held->pair.run(op); }, k, x, 987, rng);
                  };
                }});
  ts.push_back({"rx", [](FaultKind k, RngPtr) -> System {
                  // Each trial runs in its own simulated environment whose
                  // schedule comes from the input. The Heisenbug is a race
                  // that fires under 15% of schedules, so RX's rescheduling
                  // perturbations cure it; the Bohrbug fires on the input
                  // whatever the environment.
                  return [k](const In& x) -> rd::core::Result<Out> {
                    NoState state;
                    rd::env::SimEnv env;
                    env.sched_seed = static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ULL + 1;
                    rd::techniques::RxRecovery rx{env, state};
                    const auto race = rd::env::race_condition(env, kRate);
                    Out out = 0;
                    auto status = rx.execute([&]() -> rd::core::Status {
                      const bool hit = k == FaultKind::bohrbug
                                           ? rd::faults::input_position(x, 77) < kRate
                                           : race();
                      if (hit) return rd::core::failure(rd::core::FailureKind::crash, "fault");
                      out = implementation(x);
                      return rd::core::ok_status();
                    });
                    if (!status.has_value()) return status.error();
                    return out;
                  };
                }});
  ts.push_back({"microreboot",
                [](FaultKind, RngPtr rng) -> System {
                  // Heisenbugs only (Table 2): a transient wedge of the
                  // worker component, healed by rebooting just that part.
                  auto app = std::make_shared<rd::techniques::MicrorebootContainer>();
                  (void)app->add_component("core", 100.0);
                  (void)app->add_component("worker", 5.0, "core");
                  return [app, rng](const In& x) -> rd::core::Result<Out> {
                    if (rng->chance(kRate)) (void)app->fail("worker");
                    if (!app->serve("worker").has_value()) {
                      (void)app->microreboot("worker");
                      if (auto s = app->serve("worker"); !s.has_value()) return s.error();
                    }
                    return implementation(x);
                  };
                },
                {FaultKind::heisenbug}});
  return ts;
}

}  // namespace perfbench
