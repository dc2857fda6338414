#pragma once
// Shared skeleton for the AIG-based backward-reachability engines.
//
// The three SAT-flavoured engines (circuit quantification, all-SAT
// pre-image, hybrid) differ only in how they eliminate the input
// variables from the in-lined pre-image formula; everything else —
// the fixpoint loop, the frontier archive, counterexample
// reconstruction, compaction — is identical and lives here, as a
// resumable Session: the working manager, the frontier/reached cones,
// both persistent sweep sessions and the frontier archive survive a
// budget pause, and the next resume() continues from the iteration
// boundary (or retries the interrupted pre-image / fixpoint query)
// instead of starting over.
//
// The skeleton owns the run's persistent sweep sessions (a circuit SAT
// solver + proven/refuted pair cache bound to the working manager, see
// sweep/sweep_context.hpp): the per-engine eliminator receives one via
// PreImageRequest and threads it into its quantifier, and the fixpoint
// checks issue their implication queries against the other. Manager
// compaction is garbage-triggered (CompactionPolicy) instead of
// unconditional, so the sessions survive across iterations.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mc/engines.hpp"
#include "sweep/sweep_context.hpp"

namespace cbq::mc::detail {

/// State handed to the per-engine input-elimination callback.
struct PreImageRequest {
  aig::Aig* mgr;                 ///< working manager
  aig::Lit formula;              ///< F(δ(s,i)) — inputs still present
  const Network* net;
  obs::Metrics* stats;
  const portfolio::Budget* budget;  ///< effective slice budget (never null)
  sweep::SweepContext* session;     ///< run-wide sweep session (never null)
};

/// Callback: eliminate the inputs from request.formula. Returns
/// std::nullopt to signal failure — a budget interrupt (the session
/// pauses and retries the pre-image next resume) or a permanent give-up
/// (the session finishes Unknown); the two are told apart by
/// request.budget->exhausted().
using InputEliminator =
    std::function<std::optional<aig::Lit>(const PreImageRequest&)>;

/// Resumable backward reachability with AIG state sets. `eliminate` is
/// invoked once on the initial bad cone and once per pre-image.
/// `limits.timeLimitSeconds` is measured against the session's total
/// accumulated time; the slice budget's node limit applies to the
/// reached-set cone.
class BackwardReachSession final : public Session {
 public:
  BackwardReachSession(const Network& net, std::string engineName,
                       const ReachLimits& limits,
                       const CompactionPolicy& compaction,
                       std::size_t hardConeLimit, InputEliminator eliminate);

  [[nodiscard]] std::string name() const override { return res_.engine; }

 protected:
  Progress doResume(const portfolio::Budget& budget) override;

 private:
  // The resume state machine. Pausing leaves the phase unchanged, so the
  // interrupted step (pre-image elimination, fixpoint implication, trace
  // descent) is retried — deterministically, because the working manager
  // is strashed and the retried query starts from identical inputs.
  enum class Phase : std::uint8_t {
    Init,   ///< frontier 0: eliminate inputs from the bad cone
    Guard,  ///< iteration/cone limits, then commit to the next pre-image
    Pre,    ///< in-line substitution + input elimination -> pre_
    Fix,    ///< pre_ => reached? (Safe on fixpoint)
    Trace,  ///< counterexample reconstruction over the archive
  };

  Progress run(const portfolio::Budget& bud);
  Progress snapshot(Verdict v, bool done);
  void commitFrontier(aig::Lit pre);
  void maybeCompact();

  const Network* net_;
  ReachLimits limits_;
  CompactionPolicy compaction_;
  std::size_t hardConeLimit_;
  InputEliminator eliminate_;

  CheckResult res_;  ///< cumulative engine/steps/stats/cex record

  aig::Aig mgr_;                     ///< working manager
  std::vector<aig::Lit> nextL_;
  aig::Lit badL_ = aig::kFalse;
  std::vector<aig::VarSub> subst_;

  sweep::SweepContext session_;      ///< merge/DC compare-point checks
  sweep::SweepContext fixSession_;   ///< fixpoint implication checks

  aig::Aig archive_;                 ///< frontier history for traces
  std::vector<aig::Lit> archNext_;
  aig::Lit archBad_ = aig::kFalse;
  std::vector<aig::Lit> frontiersArch_;

  aig::Lit frontier_ = aig::kFalse;
  aig::Lit reached_ = aig::kFalse;
  aig::Lit pre_ = aig::kFalse;       ///< valid in Phase::Fix
  std::vector<bool> initDense_;      ///< dense initial-state assignment
  int iter_ = 0;
  int committedThisSlice_ = 0;
  Phase phase_ = Phase::Init;

  /// Budget of the resume() currently executing — what the sweep-session
  /// interrupt callbacks poll. Null between resumes.
  const portfolio::Budget* curBud_ = nullptr;
};

}  // namespace cbq::mc::detail
