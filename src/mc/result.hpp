#pragma once
// Engine verdicts, counterexample traces and the common result record.

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "obs/metrics.hpp"

namespace cbq::mc {

struct Network;

/// Outcome of a model-checking run.
enum class Verdict : std::uint8_t {
  Safe,    ///< invariant proven (fixpoint reached / induction succeeded)
  Unsafe,  ///< counterexample found
  Unknown, ///< resource bound hit (depth, cone, enumeration, time)
};

[[nodiscard]] inline const char* toString(Verdict v) {
  switch (v) {
    case Verdict::Safe:
      return "SAFE";
    case Verdict::Unsafe:
      return "UNSAFE";
    case Verdict::Unknown:
      return "UNKNOWN";
  }
  return "?";
}

/// A counterexample: one input assignment per step. Step t's inputs are
/// applied in state s_t; the bad condition holds at the final step.
struct Trace {
  std::vector<std::unordered_map<aig::VarId, bool>> inputs;

  [[nodiscard]] std::size_t length() const { return inputs.size(); }
};

/// Replays `trace` on `net` from the initial state; true iff the bad
/// condition holds at the final step. This is pure simulation — the
/// independent referee every engine's counterexample must pass.
[[nodiscard]] bool replayHitsBad(const Network& net, const Trace& trace);

/// Common result record for all engines.
struct CheckResult {
  Verdict verdict = Verdict::Unknown;
  int steps = 0;                ///< iterations (fixpoint) or cex depth
  std::optional<Trace> cex;     ///< present for Unsafe when reconstructed
  double seconds = 0.0;
  std::string engine;
  obs::Metrics stats;
};

/// One Session::resume()'s report: the cumulative (possibly still-Unknown)
/// result plus live telemetry, so a scheduler can compare engines
/// mid-flight without waiting for anyone to finish.
struct Progress {
  CheckResult result;  ///< cumulative; verdict stays Unknown while paused
  /// True when this session will never make further progress: a
  /// definitive verdict, the engine's structural limits (BMC or
  /// induction depth, cone or node caps), or a permanent failure.
  /// resume() after done returns the same Progress.
  bool done = false;
  int bound = 0;            ///< iterations / BMC depth begun, in-flight one too
  bool advanced = false;    ///< committed >= 1 bound in this resume
  /// Cumulative effort score (Session::effort): SAT conflicts + decisions
  /// + propagations plus one unit per query proven by exhaustive
  /// simulation, so it is not pure SAT effort; BDD engines report live
  /// nodes. The Session base derives effortDelta.
  std::uint64_t effort = 0;
  std::uint64_t effortDelta = 0;  ///< effort spent in this resume
  double sliceSeconds = 0.0;      ///< wall time of this resume
};

}  // namespace cbq::mc
