#include "synth/dc_simplify.hpp"

#include <vector>

#include "audit/audit.hpp"
#include "obs/tracer.hpp"
#include "sweep/signatures.hpp"
#include "sweep/sweep_context.hpp"
#include "sweep/sweeper.hpp"
#include "util/random.hpp"

namespace cbq::synth {

namespace {

using aig::Lit;
using aig::NodeId;
using aig::VarId;

constexpr int kInitialWords = 2;            ///< random simulation words
constexpr int kMaxRounds = 8;               ///< input-DC refinement rounds
constexpr std::int64_t kSatBudget = 2000;   ///< conflicts per SAT query
constexpr int kOdcAttempts = 48;            ///< ODC trials per call
constexpr std::uint64_t kSeed = 0xdc;       ///< simulation seed

/// Columns the phase-B pattern bank adds on top of the phase-A words.
/// One dcSimplify call banks at most one pattern per ODC attempt, so one
/// 64-pattern column holds them all.
constexpr int kOdcBankWords = 1;
static_assert(kOdcAttempts <= 64 * kOdcBankWords);

/// The care-column bookkeeping of phase B over the signature arena that
/// phase A refined (care = ¬fRef: inputs where the reference cofactor is
/// 0). The stored PI columns are phase B's pattern bank: every input
/// pattern when the arena is exhaustive; otherwise random words, phase
/// A's counterexamples, and every input pattern on which an ODC
/// validation failed. retarget() follows the target as phase B rewrites
/// it, keeping the bank.
class CareSim {
 public:
  CareSim(const aig::Aig& aig, Lit fRef, Lit fTgt, sweep::Signatures& sigs,
          std::span<const VarId> support)
      : aig_(&aig),
        fRef_(fRef),
        fTgt_(fTgt),
        sigs_(&sigs),
        support_(support),
        bankCex_(support.size(), 0) {}

  /// Re-lays the simulation over the joint cone of fRef and `target`,
  /// keeping every stored pattern. Must run whenever the target changes:
  /// the manager has grown since the last layout, and the slot table only
  /// addresses nodes that existed then. `target`'s support lies inside
  /// the original one (every rewrite substitutes constants or nodes of
  /// the original joint cone), so the bank's PI rows still cover it.
  void retarget(Lit target) {
    if (target == fTgt_) return;
    fTgt_ = target;
    const Lit both[] = {fRef_, target};
    sigs_->relayout(aig_->coneAnds(both));
    CBQ_AUDIT_CHECK("dc.relayout", audit::auditSignatures(*sigs_));
  }

  /// Banks the input pattern of the solver's last Sat answer, growing
  /// the bank column one bit at a time so the very next attempt already
  /// sees it. The column is appended with the first pattern; a full
  /// arena drops the pattern.
  void bankPattern(const sweep::SweepContext& ctx, util::Random& rng) {
    if (bankBits_ == 0 && !sigs_->appendWord(bankCex_, 0, rng)) return;
    for (std::size_t i = 0; i < support_.size(); ++i)
      bankCex_[i] |= std::uint64_t{ctx.modelOf(support_[i]) ? 1u : 0u}
                     << bankBits_;
    ++bankBits_;
    sigs_->refreshWord(sigs_->words() - 1, bankCex_, bankBits_);
  }

  /// True when a stored care-set pattern sees the target change under
  /// n := value: fRef ∨ target is then provably not preserved, with no
  /// rebuild and no SAT call.
  [[nodiscard]] bool refutesOdc(NodeId n, bool value) {
    return sigs_->forcingChanges(n, value, fTgt_.node(), !fRef_);
  }

  /// True when the bank holds every input pattern: an attempt
  /// refutesOdc() misses is then proven unobservable.
  [[nodiscard]] bool exhaustive() const { return sigs_->exhaustive(); }

 private:
  const aig::Aig* aig_;
  Lit fRef_, fTgt_;
  sweep::Signatures* sigs_;
  std::span<const VarId> support_;  // the arena's PIs
  std::vector<std::uint64_t> bankCex_;  // bank column, per support var
  int bankBits_ = 0;                    // patterns in the bank column
};

/// Phase A: input-DC replacements — the shared refinement loop on the
/// target's cone with care set ¬fRef. Rebuilds out.target and returns
/// false when the interrupt fired (the replacements proven so far are
/// kept).
bool inputDcPhase(aig::Aig& aig, Lit fRef, sweep::Signatures& sigs,
                  std::span<const VarId> support, sweep::SweepContext& ctx,
                  util::Random& rng, DcResult& out) {
  CBQ_OBS_SPAN("synth", "input-dc");
  const Lit roots[] = {out.target};
  sweep::SweepStats s;
  aig::NodeMap careMap;
  const bool finished =
      sweep::refine(aig, aig.coneAnds(roots), support, sigs, !fRef, ctx,
                    kMaxRounds, kSatBudget, rng, s, careMap);
  out.stats.constReplacements = s.constMerges;
  out.stats.mergeReplacements = s.satMerges;
  out.stats.satChecks = s.satChecks;
  out.stats.simProofs = s.simProofs;
  out.stats.satRefuted = s.satRefuted;
  out.stats.satUnknown = s.satUnknown;
  out.target = aig.rebuildWithNodeMap(roots, careMap).front();
  return finished;
}

/// Phase B: ODC attempts n := 0/1 on out.target, each committed only when
/// the paper's equivalence check fRef ∨ fTgt' ≡ fRef ∨ fTgt answers
/// Holds. An attempt that a banked care-set pattern already refutes skips
/// the rebuild and the SAT call; every SAT refutation grows the bank. On
/// an exhaustive bank a surviving attempt is the proof itself and is
/// committed with no miter and no SAT call. The interrupt is polled
/// before each attempt.
void odcPhase(aig::Aig& aig, Lit fRef, CareSim& sim, sweep::SweepContext& ctx,
              util::Random& rng, DcResult& out) {
  CBQ_OBS_SPAN("synth", "odc");
  int attempts = 0;
  bool changed = true;
  bool interrupted = false;
  // The scan order of the current target's cone; a commit swaps in the
  // committed tentative's order, walked once to measure it.
  const Lit start[] = {out.target};
  std::vector<NodeId> order = aig.coneAnds(start);
  std::vector<NodeId> tentOrder;
  while (changed && attempts < kOdcAttempts) {
    changed = false;
    const Lit current = out.target;
    sim.retarget(current);
    const Lit curRoots[] = {current};
    for (const NodeId n : order) {
      if (attempts >= kOdcAttempts) break;
      for (const bool value : {false, true}) {
        if (attempts >= kOdcAttempts) break;
        if (ctx.interrupted()) {
          interrupted = true;  // keep the replacements committed so far
          break;
        }
        ++attempts;
        if (sim.refutesOdc(n, value)) {
          ++out.stats.odcSimRefuted;
          continue;
        }
        aig::NodeMap tentativeMap;
        tentativeMap.set(n, value ? aig::kTrue : aig::kFalse);
        const Lit tentative =
            aig.rebuildWithNodeMap(curRoots, tentativeMap).front();
        const Lit tentRoots[] = {tentative};
        tentOrder = aig.coneAnds(tentRoots);
        if (tentOrder.size() >= order.size()) continue;
        if (sim.exhaustive()) {
          out.target = tentative;
          ++out.stats.odcReplacements;
          ++out.stats.simProofs;
          changed = true;
          break;
        }
        // The paper's extra equivalence check: is the EXOR between the
        // node before/after observable at fRef ∨ fTgt?
        const Lit before = aig.mkOr(fRef, current);
        const Lit after = aig.mkOr(fRef, tentative);
        {
          const Lit focusRoots[] = {before, after};
          ctx.focusOn(focusRoots);
        }
        ++out.stats.satChecks;
        switch (ctx.checkEquiv(before, after, kSatBudget)) {
          case sat::Verdict::Holds:
            out.target = tentative;
            ++out.stats.odcReplacements;
            changed = true;
            break;
          case sat::Verdict::Fails:
            ++out.stats.satRefuted;
            sim.bankPattern(ctx, rng);
            break;
          case sat::Verdict::Unknown:
            ++out.stats.satUnknown;
            break;
        }
        if (changed) break;
      }
      if (changed) break;  // restart scan on the new, smaller cone
      if (interrupted) break;
    }
    if (changed) order.swap(tentOrder);
  }
}

}  // namespace

DcResult dcSimplify(aig::Aig& aig, Lit fRef, Lit fTgt, const DcOptions& opts,
                    sweep::SweepContext& ctx) {
  DcResult out;
  out.target = fTgt;
  if (fTgt.isConstant() || fRef.isTrue()) {
    // fRef ≡ 1 makes everything don't-care: fRef ∨ fTgt ≡ 1 regardless,
    // so the cheapest valid target is constant false.
    if (fRef.isTrue()) out.target = aig::kFalse;
    return out;
  }

  util::Random rng(kSeed);
  const Lit both[] = {fRef, fTgt};
  const auto support = aig.supportVars(both);
  sweep::Signatures sigs(aig, aig.coneAnds(both), support, rng, kInitialWords,
                         kInitialWords + kMaxRounds + kOdcBankWords);

  CBQ_AUDIT_CHECK("dc.signatures", audit::auditSignatures(sigs));
  ctx.bind(aig);
  // Phase A never grows the manager, so the joint cone covers every
  // input-DC query; phase B re-focuses per attempt (its miters may strash
  // onto nodes outside this cone). Exhaustive signatures query nothing.
  if (!sigs.exhaustive()) ctx.focusOn(both);
  const bool finished =
      inputDcPhase(aig, fRef, sigs, support, ctx, rng, out);

  if (opts.useOdc && finished) {
    CareSim sim(aig, fRef, fTgt, sigs, support);
    odcPhase(aig, fRef, sim, ctx, rng, out);
  }
  return out;
}

std::vector<aig::Lit> rewrite(aig::Aig& aig,
                              std::span<const aig::Lit> roots) {
  // Rebuilding with an empty node map re-drives every cone node through
  // mkAnd, re-applying the one/two-level rules and current strash table.
  return aig.rebuildWithNodeMap(roots, aig::NodeMap{});
}

}  // namespace cbq::synth
