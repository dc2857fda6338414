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
// The skeleton owns the run's persistent sweep session (a circuit SAT
// solver bound to the working manager plus a bank of §2.1
// counterexamples, see sweep/sweep_context.hpp): the per-engine
// eliminator receives it via PreImageRequest and threads it into its
// quantifier. The two set-level
// queries of an iteration — the fixpoint check pre ⇒ reached and the
// collapse check reached ⇒ pre — are decided from one exhaustive truth-
// table arena of the {pre, reached} cone whenever its support is small
// enough (sweep::Signatures::truthTables); only past that bound do they
// go to a second SAT session, fixSession_, which is bound and focused
// just for them. Compaction re-strashes the live cones into a fresh
// manager after every committed iteration: it drops the scratch nodes
// that cofactoring and sweeping leave behind and re-applies the
// construction rewrite rules across the whole live set. Both solvers
// therefore live for one iteration; the sweep session carries only its
// counterexample bank across, which is keyed by VarId and needs no remap.
//
// No per-iteration cost grows with the depth reached: the reached set
// collapses to the pre-image whenever the pre-image subsumes it (every
// design that can stutter), so its cone stays the size of one frontier
// instead of an OR chain of all of them, and the trace descent focuses
// each step on that step's target.

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
/// invoked once on the initial bad cone and once per pre-image. The
/// budget's node limit applies to the reached-set cone.
class BackwardReachSession final : public Session {
 public:
  BackwardReachSession(const Network& net, std::string engineName,
                       InputEliminator eliminate);

 protected:
  Progress doResume(const portfolio::Budget& budget) override;
  void exportLive(obs::Metrics& stats) const override;

 private:
  // The resume state machine. Pausing leaves the phase unchanged, so the
  // interrupted step (pre-image elimination, fixpoint implication, trace
  // descent) is retried — deterministically, because the working manager
  // is strashed and the retried query starts from identical inputs.
  enum class Phase : std::uint8_t {
    Init,   ///< frontier 0: eliminate inputs from the bad cone
    Guard,  ///< cone limits, then commit to the next pre-image
    Pre,    ///< in-line substitution + input elimination -> pre_
    Fix,    ///< pre_ => reached? (Safe on fixpoint), then the collapse
    Trace,  ///< counterexample reconstruction over the archive
  };

  Progress run(const portfolio::Budget& bud);
  /// Records `pre` (which the fixpoint check just found not contained in
  /// the reached set) as the new frontier and grows the reached set: to
  /// `pre` itself when `collapse` (reached ⇒ pre was proven), else to the
  /// disjunction.
  void commitFrontier(aig::Lit pre, bool collapse);
  void compact();

  const Network* net_;
  InputEliminator eliminate_;

  aig::Aig mgr_;                     ///< working manager
  std::vector<aig::Lit> nextL_;
  aig::Lit badL_ = aig::kFalse;
  std::vector<aig::VarSub> subst_;

  sweep::SweepContext session_;      ///< merge/DC compare-point checks
  sweep::SweepContext fixSession_;   ///< fixpoint/collapse checks past the
                                     ///< truth-table bound

  aig::Aig archive_;                 ///< frontier history for traces
  std::vector<aig::Lit> archNext_;
  aig::Lit archBad_ = aig::kFalse;
  std::vector<aig::Lit> frontiersArch_;

  aig::Lit frontier_ = aig::kFalse;
  aig::Lit reached_ = aig::kFalse;
  aig::Lit pre_ = aig::kFalse;       ///< valid in Phase::Fix
  std::vector<bool> initDense_;      ///< dense initial-state assignment
  int iter_ = 0;
  Phase phase_ = Phase::Init;
};

}  // namespace cbq::mc::detail
