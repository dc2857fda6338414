#pragma once
// Synthesis-based optimizations — the paper's §2.2.
//
// After the merge phase we must represent F0 ∨ F1, not the individual
// cofactors, so one cofactor's onset is an input don't-care set for the
// other. Taking fRef as the reference cofactor and fTgt as the target:
//
//  * Input-DC (satisfiability don't-cares): a node n of fTgt may be
//    replaced by a candidate g — a constant, or another node modulo
//    complementation — whenever SAT(¬fRef ∧ (n ⊕ g)) is UNSAT, i.e. the
//    transformed node matches the original outside the don't-care set.
//    This is the sweeper's own loop (sweep::refine) with care set ¬fRef:
//    candidates come from simulation signatures compared only where fRef
//    is 0, and SAT counterexamples refine them. On exhaustive signatures
//    (small supports, see sweep::Signatures) an equal candidate needs no
//    SAT call.
//    Accepted replacements compose soundly: every proof holds pointwise on
//    the care set, so the rebuilt fTgt agrees with fTgt wherever fRef=0,
//    which is all that fRef ∨ fTgt needs.
//
//  * Observability-DC: when the input-care check fails, a replacement may
//    still be invisible at the output of fRef ∨ fTgt. Each ODC attempt is
//    validated by the paper's "additional equivalence check"
//    fRef ∨ fTgt' ≡ fRef ∨ fTgt (equivalently: redundancy of the EXOR
//    gate comparing the node before/after), making commits
//    unconditionally sound even after earlier rewrites. Before building
//    an attempt, it is simulated on a bank of concrete input patterns
//    (the random and counterexample words of the input-DC phase, plus
//    the model of every failed ODC check): a care-set pattern on which
//    the forced node changes the target refutes it without SAT. When the
//    bank is exhaustive, an attempt it does not refute is proven too: it
//    is committed (if the cone shrinks) with no miter and no SAT call.

#include <cstdint>
#include <span>

#include "aig/aig.hpp"
#include "sweep/sweep_context.hpp"

namespace cbq::synth {

struct DcOptions {
  int numWords = 2;                ///< random simulation words
  int maxRounds = 8;               ///< cex-refinement rounds (input-DC)
  std::int64_t satBudget = 2000;   ///< conflicts per SAT query
  bool useOdc = true;              ///< enable the ODC phase
  int odcAttempts = 48;            ///< max globally-verified ODC trials
  std::uint64_t seed = 0xdc;       ///< simulation seed
};

struct DcStats {
  std::size_t constReplacements = 0;  ///< input-DC nodes proven constant
  std::size_t mergeReplacements = 0;  ///< input-DC node-to-node merges
  std::size_t odcReplacements = 0;    ///< ODC-validated replacements
  std::size_t odcSimRefuted = 0;  ///< ODC attempts refuted by simulation
  /// SAT queries issued; each answers Holds (one of the three replacement
  /// counters), Fails (satRefuted) or Unknown (satUnknown).
  std::size_t satChecks = 0;
  /// Replacements proven by exhaustive simulation, with no SAT query:
  /// satChecks + simProofs == const + merge + odc replacements +
  /// satRefuted + satUnknown.
  std::size_t simProofs = 0;
  std::size_t satRefuted = 0;
  std::size_t satUnknown = 0;
  std::size_t nodesBefore = 0;
  std::size_t nodesAfter = 0;
};

struct DcResult {
  aig::Lit target;  ///< simplified fTgt (equal to fTgt wherever fRef = 0)
  DcStats stats;
};

/// Simplifies `fTgt` using the onset of `fRef` as a don't-care set.
/// Postcondition: fRef ∨ result ≡ fRef ∨ fTgt.
///
/// Every check runs on `ctx`'s circuit solver (all queries are
/// assumption-only, so they coexist with the sweeping checks); on
/// exhaustive signatures no query is made at all. Care-set
/// equivalences hold only under ¬fRef and are NOT recorded in the pair
/// cache. `ctx.interrupted()` is polled before every input-DC query and
/// every ODC attempt: when it fires, the phases stop and the current
/// (sound) result is returned.
DcResult dcSimplify(aig::Aig& aig, aig::Lit fRef, aig::Lit fTgt,
                    const DcOptions& opts, sweep::SweepContext& ctx);

/// Structural cleanup: rebuilds the cones through the manager's
/// construction rules (strash + one/two-level rewrites). Cheap and always
/// function-preserving; used after merges have changed cone shapes.
std::vector<aig::Lit> rewrite(aig::Aig& aig, std::span<const aig::Lit> roots);

}  // namespace cbq::synth
