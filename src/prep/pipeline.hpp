#pragma once
// Preprocessing pass pipeline — the layer in front of every engine.
//
// conf_date_CabodiCNQ05's backward-reachability procedure wins or loses on
// how small the problem is before the first pre-image is computed: every
// latch in the bad cone's transitive support widens every pre-image, and
// every irrelevant input is another variable the quantifier must
// eliminate. The Pipeline shrinks the Network once per problem —
// cone-of-influence reduction, constant/stuck-at latch sweep, structural
// simplification, latch correspondence, iterated to closure because each
// pass can expose work for the others — and hands every engine (and every
// portfolio worker) the same PreparedProblem. Counterexamples found on the
// reduced model are mapped back through the recorded transform stack
// (trace_lift.hpp) so verdicts, traces and reports always speak the
// original network's variables, checked by the replayHitsBad referee on
// the original network.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mc/engines.hpp"
#include "mc/network.hpp"
#include "mc/result.hpp"
#include "portfolio/budget.hpp"
#include "prep/passes.hpp"
#include "prep/trace_lift.hpp"

namespace cbq::prep {

/// Pass on/off knobs and budgets. `enabled = false` short-circuits the
/// whole pipeline to the identity result: `reduced` stays empty and
/// callers run on problem(original).
struct PrepOptions {
  bool enabled = true;
  bool coi = true;         ///< cone-of-influence reduction
  bool constLatch = true;  ///< constant/stuck-at latch sweep
  bool structural = true;  ///< sweeper-based structural simplification
  bool latchCorr = true;   ///< equivalent-latch merging
  /// Pipeline rounds: passes iterate while any of them changes the
  /// network (const propagation exposes COI reductions and vice versa).
  int maxRounds = 4;
  std::int64_t sweepSatBudget = 200;  ///< conflicts per sweep SAT query
  /// Skip structural simplification above this AND count (preprocessing
  /// must stay cheap relative to the engines; 0 = no bound).
  std::size_t structuralMaxAnds = 100000;
  /// Keep a structural-simplify result only when it shrinks the AND
  /// count by at least this fraction (see prep/passes.hpp on why a
  /// noise-level shrink is a net loss).
  double structuralMinShrink = 0.05;
  /// Skip latch correspondence above this AND count, and abandon it when
  /// its compose rounds grow the working manager past `latchCorrGrowth` ×
  /// the starting node count (the refinement is worst-case quadratic; see
  /// prep/passes.hpp).
  std::size_t latchCorrMaxAnds = 100000;
  std::size_t latchCorrGrowth = 8;
};

/// Per-pass shrink record for reports.
struct PassStats {
  std::string pass;
  std::size_t latchesBefore = 0, latchesAfter = 0;
  std::size_t inputsBefore = 0, inputsAfter = 0;
  std::size_t andsBefore = 0, andsAfter = 0;
  double seconds = 0.0;
};

/// The pipeline's output: the reduced network, the transform stack that
/// lifts traces back, per-pass stats, and — when simplification already
/// settled the verdict — the decided result. The transform stack is
/// immutable shared data: clone the problem per worker, copy the lifter.
struct PreparedProblem {
  /// True when no enabled pass changed the network. `reduced` is then
  /// EMPTY — an identity pipeline costs no network copy — and callers
  /// must run on the original: use problem(original).
  bool identity = true;
  mc::Network reduced;  ///< the reduced network; meaningful iff !identity
  std::vector<std::shared_ptr<const Transform>> stack;  ///< applied order
  std::vector<PassStats> passes;
  double seconds = 0.0;

  /// Original-network shape, for reports.
  std::size_t latchesBefore = 0, inputsBefore = 0, andsBefore = 0;

  /// Set when preprocessing alone decided the verdict: the bad cone
  /// simplified to constant false (Safe), or the initial state violates
  /// the property under all-false inputs (Unsafe; `decidedCex` is the
  /// already-lifted original-variable trace).
  std::optional<mc::Verdict> decided;
  std::optional<mc::Trace> decidedCex;

  obs::Metrics stats;

  /// The network the engines should check: `reduced` when a pass changed
  /// something, otherwise the (caller-owned) original.
  [[nodiscard]] const mc::Network& problem(
      const mc::Network& original) const {
    return identity ? original : reduced;
  }

  /// Lifter over the recorded transform stack (shared, copyable).
  [[nodiscard]] TraceLifter lifter() const { return TraceLifter(stack); }
};

class Pipeline {
 public:
  explicit Pipeline(PrepOptions opts = {}) : opts_(opts) {}

  /// Runs the enabled passes to closure on `net`. `net` is only read;
  /// the result owns fresh managers. `budget` bounds preprocessing
  /// itself: its deadline/cancel token is polled between passes (and
  /// inside the sweep/latch-correspondence workhorses), so `--timeout`
  /// covers prep, not just the engines. On expiry the pipeline stops
  /// with whatever reduction is already committed — always sound.
  [[nodiscard]] PreparedProblem run(
      const mc::Network& net, const portfolio::Budget& budget = {}) const;

 private:
  PrepOptions opts_;
};

/// The final counterexample referee, shared by every entry path: when
/// `res` claims Unsafe with a (lifted) trace that does not replay on the
/// original network — or carries no trace at all and `requireTrace` is
/// set — the verdict is demoted to Unknown, the trace is dropped and
/// `prep.lift_replay_failures` is counted. An unconfirmed bug is never
/// reported. Returns true when a demotion happened.
bool demoteUnreplayableCex(const mc::Network& original, mc::CheckResult& res,
                           bool requireTrace = false);

/// Sequential single-engine entry path: the portfolio's sequence with one
/// engine on one worker — preprocess, resume the engine's session on the
/// reduced problem under `budget` (never paused: no rival waits), lift
/// any counterexample back to the original network (a lifted trace
/// failing the replayHitsBad referee demotes the verdict to Unknown).
/// A failing pass falls back to the original network and an engine
/// failure answers Unknown; neither throws. Prep stats are merged into
/// the result's stats; `result.seconds` is the whole wall time. Defined
/// in portfolio/runner.cpp, beside the session loop it configures.
mc::CheckResult checkWithPrep(const mc::Engine& engine,
                              const mc::Network& net,
                              const PrepOptions& opts = {},
                              const portfolio::Budget& budget = {});

}  // namespace cbq::prep
