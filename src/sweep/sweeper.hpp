#pragma once
// Equivalence detection and node merging — the paper's merge phase (§2.1).
//
// Given the cones of a set of roots (in practice: the two cofactors of the
// quantified variable), find functionally equivalent internal nodes and
// rebuild the cones with every proven equivalence collapsed onto the
// earlier node. The detection layers:
//
//  1. AIG semi-canonicity: structural hashing already identifies
//     syntactically equal nodes — it happens implicitly in the manager.
//  2. Compare points from simulation signatures: refine() below, called
//     with the care set kTrue.
//     * Exhaustive signatures (support of at most
//       Signatures::kExhaustiveMaxInputs inputs, arena within its cap)
//       are complete truth tables: an equal candidate is proven as
//       proposed, with no SAT call (SweepStats::simProofs).
//     * Otherwise each candidate is an assumption-only query on the
//       session's circuit solver, which reasons on the AIG itself ("load
//       once, factorize many checks in a single run"). Disproofs return
//       counterexamples that are packed — 64 at a time — into new
//       simulation words, so the next round proposes only candidates that
//       survive them; proofs are learned by the solver ("as long as we
//       find equivalent points, we can learn them"). The session banks
//       the last SweepContext::kBankPatterns counterexamples and seeds
//       the next sweep's random words with them.
//
// The paper's size-bounded BDD sweeping (shared manager, nodes whose BDDs
// coincide modulo complement are merged, cones past the node limit drop
// out) replaces layer 2 when SweepOptions::useSat is off — the merge
// ablation's bdd-only column. It does not run in front of layer 2: on
// exhaustive cones layer 2 proves every merge it would find, and on the
// wider cones measured it found no merge layer 2 missed and cost time.
//
// refine() is also the §2.2 input don't-care phase (synth::dcSimplify):
// there the signatures are compared only on the care set ¬fRef and every
// proof holds only under it.

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "sweep/signatures.hpp"
#include "sweep/sweep_context.hpp"
#include "util/random.hpp"

namespace cbq::sweep {

/// A random arena starts with SweepContext::kBankWords words and runs at
/// most 16 refinement rounds, with room for one counterexample word per
/// round; its simulation seed is fixed.
struct SweepOptions {
  std::int64_t satBudget = 2000;  ///< conflicts per SAT equivalence query
  bool useSat = true;             ///< layer 2 (simulation + SAT); false:
                                  ///  BDD sweeping instead
};

struct SweepStats {
  std::size_t bddMerges = 0;   ///< merges proven by BDD pointer equality
  std::size_t satMerges = 0;   ///< node merges proven by layer 2 (SAT
                               ///  or exhaustive simulation)
  std::size_t constMerges = 0; ///< nodes proven constant
  std::size_t satChecks = 0;   ///< SAT equivalence queries issued
  std::size_t simProofs = 0;   ///< layer-2 merges (node or constant)
                               ///  proven by exhaustive signatures
  std::size_t satRefuted = 0;  ///< queries answered SAT (not equivalent)
  std::size_t satUnknown = 0;  ///< budget exhausted
  std::size_t rounds = 0;      ///< refinement rounds executed
};

struct SweepResult {
  std::vector<aig::Lit> roots;  ///< rebuilt roots, same order as input
  SweepStats stats;
};

/// Detects equivalent nodes in the cones of `roots` and rebuilds the cones
/// with merges applied. New nodes are added to `aig`; the returned literals
/// express the same functions as the inputs.
///
/// Every SAT check runs on `ctx`'s circuit solver, and a random signature
/// arena starts from `ctx`'s banked counterexamples (refine() feeds the
/// bank); sweep() binds `ctx` to `aig` itself. `ctx.interrupted()` is
/// polled once per SAT compare point: sweeping is an optimization, so
/// when it fires the rounds stop and the cones are rebuilt with the
/// merges already proven (sound).
SweepResult sweep(aig::Aig& aig, std::span<const aig::Lit> roots,
                  const SweepOptions& opts, SweepContext& ctx);

/// The candidate/refinement loop shared by sweeping (§2.1) and the input
/// don't-care phase (§2.2). Candidates are the AND nodes of `order`
/// (topological); representatives are the PIs of `support`, then earlier
/// candidates. Each round makes one pass in that order and proposes, for
/// every unmerged node, the constant or the earliest earlier node whose
/// signature — restricted to the patterns where `care` is 1 and
/// complement-normalized — is equal. When `sigs` is exhaustive the equal
/// signatures are the proof: the merge is taken with no SAT call
/// (stats.simProofs). Otherwise each candidate is checked with SAT on
/// `ctx` (bound to `aig` and focused on a cone covering `order` and
/// `care`):
///   * care == kTrue: checkEquiv/checkConstant; proofs are learned by the
///     solver, refutations banked in the session (SweepContext::bankModel);
///   * otherwise: checkEquivUnderCare, a fact that holds only where care
///     is 1 and is neither learned nor banked.
/// A refutation banks its model into the next signature word (64 per
/// round); an Unknown answer disqualifies the node. Stops after `rounds`
/// rounds, a round with no refutation, or when ctx.interrupted() fires;
/// returns false in the last case (the merges proven so far are kept).
///
/// `merges` is extended in place (nodes already in it are skipped): it
/// maps every merged node to a constant, a PI or an earlier node of
/// `order`, so rebuilding through it is acyclic.
bool refine(const aig::Aig& aig, std::span<const aig::NodeId> order,
            std::span<const aig::VarId> support, Signatures& sigs,
            aig::Lit care, SweepContext& ctx, int rounds,
            std::int64_t satBudget, util::Random& rng, SweepStats& stats,
            aig::NodeMap& merges);

}  // namespace cbq::sweep
