#pragma once
// Circuit-based existential quantification — the paper's core contribution.
//
// ∃v.F is computed as F|v=0 ∨ F|v=1 on the AIG representation, with the
// blow-up fought in two phases per variable (§2):
//
//   1. merge phase   — structural hashing happens for free while the
//                      cofactors are rebuilt in the shared manager; the
//                      sweeping engine (simulation compare points,
//                      proven by exhaustive signatures or incremental
//                      SAT checks) then collapses every functionally
//                      equivalent pair of cofactor nodes;
//   2. optimization  — each cofactor is simplified using the other's onset
//                      as an input don't-care set (plus the ODC variant),
//                      then the disjunction is rebuilt through the
//                      manager's rewrite rules.
//
// Multi-variable quantification schedules variables cheapest-first (fewest
// dependent cone nodes) and supports the paper's §4 **partial
// quantification**: a variable whose elimination would exceed the growth
// bound is aborted and reported as *residual*, so a SAT-based engine can
// finish the job on a formula with far fewer decision variables.

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "sweep/sweeper.hpp"
#include "synth/dc_simplify.hpp"
#include "obs/metrics.hpp"

namespace cbq::quant {

struct QuantOptions {
  bool useSubstitution = true;   ///< §3 in-lining fast path (see below)
  bool mergePhase = true;        ///< enable §2.1 (sweeping of the cofactors)
  bool optPhase = true;          ///< enable §2.2 (DC-based simplification)
  bool rewriteResult = true;     ///< structural cleanup of the disjunction
  sweep::SweepOptions sweepOpts{};
  synth::DcOptions dcOpts{};
  double growthLimit = 2.0;      ///< §4 partial quantification: abort var
  std::size_t growthSlack = 32;  ///<   when result cone exceeds
                                 ///<   growthLimit * before + growthSlack
  int abortRetries = 1;          ///< re-attempts of aborted vars at the end
};

/// Quantifier bound to one AIG manager. Accumulates statistics across
/// calls; engines read them for the ablation experiments.
///
/// Every merge-phase sweep and every DC simplification runs on `ctx`, the
/// persistent sweep session (when the engine owns it, shared by all its
/// quantifiers and fixpoint checks across a whole reachability run). The
/// context's interrupt is polled between variables by quantifyAll: once
/// it fires, unprocessed variables are reported as residual so the caller
/// can notice the interruption and bail out; it also reaches the inner
/// SAT-check loops of both phases. The context must outlive the
/// quantifier.
class Quantifier {
 public:
  Quantifier(aig::Aig& aig, QuantOptions opts, sweep::SweepContext& ctx)
      : aig_(&aig), opts_(std::move(opts)), ctx_(&ctx) {}

  /// ∃v.f — full per-variable pipeline. Returns std::nullopt when partial
  /// quantification aborted the variable (result would exceed the growth
  /// bound); the manager may still contain the scratch nodes.
  std::optional<aig::Lit> quantifyVar(aig::Lit f, aig::VarId v);

  /// Like quantifyVar but never aborts (growth bound ignored).
  aig::Lit quantifyVarForced(aig::Lit f, aig::VarId v);

  /// §3 "quantification by substitution" (in-lining): when f contains a
  /// top-level definition conjunct — the literal v/!v itself, or
  /// v ↔ g with g independent of v — then ∃v.f = rest[v := g] exactly,
  /// with no cofactor doubling at all. Returns std::nullopt when no such
  /// conjunct exists. Backward-reachability formulas have this shape by
  /// construction, which is the paper's §3 observation; quantifyVar tries
  /// this rule first when options().useSubstitution is set.
  std::optional<aig::Lit> quantifyBySubstitution(aig::Lit f, aig::VarId v);

  struct Result {
    aig::Lit f;                        ///< formula with vars eliminated
    std::vector<aig::VarId> residual;  ///< vars left in place by aborts
  };

  /// Eliminates every variable of `vars` (cheapest first), honouring the
  /// abort policy. Residual variables still occur in the returned formula.
  Result quantifyAll(aig::Lit f, std::span<const aig::VarId> vars);

  [[nodiscard]] const obs::Metrics& stats() const { return stats_; }
  obs::Metrics& stats() { return stats_; }

  [[nodiscard]] const QuantOptions& options() const { return opts_; }

 private:
  std::optional<aig::Lit> quantifyVarImpl(aig::Lit f, aig::VarId v,
                                          bool enforceGrowth);

  /// Scheduling cost: number of cone nodes whose structural support
  /// contains each candidate variable (cheap bottom-up bitset pass).
  std::vector<std::size_t> dependentCounts(
      aig::Lit f, std::span<const aig::VarId> vars) const;

  aig::Aig* aig_;
  QuantOptions opts_;
  sweep::SweepContext* ctx_;
  obs::Metrics stats_;
};

}  // namespace cbq::quant
