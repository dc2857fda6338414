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
//    Candidates are proposed by care-set-masked simulation signatures and
//    refined with SAT counterexamples, exactly like the sweeping engine.
//    Accepted replacements compose soundly: every proof holds pointwise on
//    the care set, so the rebuilt fTgt agrees with fTgt wherever fRef=0,
//    which is all that fRef ∨ fTgt needs.
//
//  * Observability-DC: when the input-care check fails, a replacement may
//    still be invisible at the output of fRef ∨ fTgt. Each ODC attempt is
//    validated by the paper's "additional equivalence check"
//    fRef ∨ fTgt' ≡ fRef ∨ fTgt (equivalently: redundancy of the EXOR
//    gate comparing the node before/after), making commits
//    unconditionally sound even after earlier rewrites.

#include <cstdint>
#include <functional>
#include <span>

#include "aig/aig.hpp"

namespace cbq::sweep {
class SweepContext;
}

namespace cbq::synth {

struct DcOptions {
  int numWords = 2;                ///< random simulation words
  int maxRounds = 8;               ///< cex-refinement rounds (input-DC)
  std::int64_t satBudget = 2000;   ///< conflicts per SAT query
  bool useOdc = true;              ///< enable the ODC phase
  int odcAttempts = 48;            ///< max globally-verified ODC trials
  std::uint64_t seed = 0xdc;       ///< simulation seed

  /// Cooperative stop, polled once per SAT query site. Simplification is
  /// an optimization: when the callback fires, the phases stop early and
  /// the current (sound) result is returned.
  std::function<bool()> interrupt{};

  /// Persistent sweep session whose circuit solver the DC checks share
  /// (all queries here are assumption-only, so they coexist with the
  /// sweeping checks in one solver). Care-set-relative equivalences are
  /// NOT recorded in the session's pair cache — they only hold under
  /// ¬fRef, not globally. Null = private throwaway solver per call.
  sweep::SweepContext* context = nullptr;
};

struct DcStats {
  std::size_t constReplacements = 0;  ///< input-DC nodes proven constant
  std::size_t mergeReplacements = 0;  ///< input-DC node-to-node merges
  std::size_t odcReplacements = 0;    ///< ODC-validated replacements
  std::size_t satChecks = 0;
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
DcResult dcSimplify(aig::Aig& aig, aig::Lit fRef, aig::Lit fTgt,
                    const DcOptions& opts = {});

/// Structural cleanup: rebuilds the cones through the manager's
/// construction rules (strash + one/two-level rewrites). Cheap and always
/// function-preserving; used after merges have changed cone shapes.
std::vector<aig::Lit> rewrite(aig::Aig& aig, std::span<const aig::Lit> roots);

}  // namespace cbq::synth
