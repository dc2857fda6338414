#include "synth/dc_simplify.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "audit/audit.hpp"
#include "obs/tracer.hpp"
#include "sweep/signatures.hpp"
#include "sweep/sweep_context.hpp"
#include "util/random.hpp"

namespace cbq::synth {

namespace {

using aig::Lit;
using aig::NodeId;
using aig::VarId;

std::uint64_t negMask(bool b) { return b ? ~std::uint64_t{0} : 0; }

using sweep::mix64;

/// Columns the phase-B pattern bank may add on top of the phase-A words:
/// 64 SAT counterexamples each. One dcSimplify call banks at most one
/// pattern per ODC attempt, so the default attempt cap fills one column.
constexpr int kOdcBankWords = 4;

/// Simulation of the joint cone of fRef and fTgt with per-word care masks
/// (care = ¬fRef: inputs where the reference cofactor is 0). Built on the
/// flat signature arena: appends simulate only the new column, and
/// care-masked class keys are 64-bit hashes with exact masked comparison
/// as the collision referee (no per-node string keys).
///
/// The stored PI columns double as phase B's pattern bank: random words,
/// phase A's counterexamples, and every input pattern on which an ODC
/// validation failed. retarget() follows the target as phase B rewrites
/// it, keeping the bank.
class CareSim {
 public:
  CareSim(const aig::Aig& aig, Lit fRef, Lit fTgt, util::Random& rng,
          int words, int maxWords)
      : aig_(&aig), fRef_(fRef), fTgt_(fTgt) {
    const Lit both[] = {fRef, fTgt};
    support_ = aig.supportVars(both);
    sigs_.emplace(aig, aig.coneAnds(both), support_, rng, words, maxWords);
    bankCex_.assign(support_.size(), 0);
    recomputeCare(0);
  }

  /// `cexBits` is parallel to support(): bit j of entry i is the j-th
  /// stored counterexample value of support()[i]. Only the new column is
  /// simulated.
  void appendWord(std::span<const std::uint64_t> cexBits, int cexCount,
                  util::Random& rng) {
    if (sigs_->appendWord(cexBits, cexCount, rng))
      recomputeCare(sigs_->words() - 1);
  }

  /// 64-bit mixed hash of the literal's care-masked value.
  [[nodiscard]] std::uint64_t careHash(Lit l) const {
    const auto s = sigs_->of(l.node());
    const std::uint64_t flip = negMask(l.negated());
    std::uint64_t h = 0x9d39247e33776d41ull;
    for (std::size_t w = 0; w < s.size(); ++w)
      h = mix64(h ^ mix64(((s[w] ^ flip) & care_[w]) + w));
    return h;
  }

  /// Exact care-masked equality of two literal values.
  [[nodiscard]] bool careEqual(Lit a, Lit b) const {
    const auto sa = sigs_->of(a.node());
    const auto sb = sigs_->of(b.node());
    const std::uint64_t flip = negMask(a.negated() != b.negated());
    for (std::size_t w = 0; w < sa.size(); ++w)
      if (((sa[w] ^ (sb[w] ^ flip)) & care_[w]) != 0) return false;
    return true;
  }

  /// True when the literal is constant `value` on every care-set pattern.
  [[nodiscard]] bool careConstant(Lit l, bool value) const {
    // litValue ^ valueMask == s ^ negMask(negated != value); any set care
    // bit there is a pattern where the literal differs from `value`.
    const auto s = sigs_->of(l.node());
    const std::uint64_t flip = negMask(l.negated() != value);
    for (std::size_t w = 0; w < s.size(); ++w)
      if (((s[w] ^ flip) & care_[w]) != 0) return false;
    return true;
  }

  [[nodiscard]] const std::vector<VarId>& support() const { return support_; }

  /// AND nodes of fTgt's cone only, topological.
  [[nodiscard]] std::vector<NodeId> targetOrder() const {
    const Lit roots[] = {fTgt_};
    return aig_->coneAnds(roots);
  }

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
    recomputeCare(0);
  }

  /// Banks the input pattern of the solver's last Sat answer, growing a
  /// partly filled column one bit at a time so the very next attempt
  /// already sees it. A full bank drops the pattern.
  void bankPattern(const sweep::SweepContext& ctx, util::Random& rng) {
    if (bankBits_ == 0 || bankBits_ == 64) {
      std::fill(bankCex_.begin(), bankCex_.end(), 0);
      bankBits_ = 0;
      if (!sigs_->appendWord(bankCex_, 0, rng)) return;
    }
    for (std::size_t i = 0; i < support_.size(); ++i)
      bankCex_[i] |= std::uint64_t{ctx.modelOf(support_[i]) ? 1u : 0u}
                     << bankBits_;
    ++bankBits_;
    const std::size_t w = sigs_->words() - 1;
    sigs_->refreshWord(w, bankCex_, bankBits_);
    recomputeCare(w);
  }

  /// True when a stored care-set pattern sees the target change under
  /// n := value: fRef ∨ target is then provably not preserved, with no
  /// rebuild and no SAT call.
  [[nodiscard]] bool refutesOdc(NodeId n, bool value) {
    return sigs_->forcingChanges(n, value, fTgt_.node(), care_);
  }

 private:
  void recomputeCare(std::size_t from) {
    // care = ¬fRef, per column; only an appended or refreshed column
    // (always the last ones) changes after simulation, so only those need
    // computing.
    care_.resize(sigs_->words());
    const auto rs = sigs_->of(fRef_.node());
    for (std::size_t w = from; w < care_.size(); ++w)
      care_[w] = ~(rs[w] ^ negMask(fRef_.negated()));
  }

  const aig::Aig* aig_;
  Lit fRef_, fTgt_;
  std::vector<VarId> support_;
  std::optional<sweep::Signatures> sigs_;
  std::vector<std::uint64_t> care_;
  std::vector<std::uint64_t> bankCex_;  // open bank column, per support var
  int bankBits_ = 0;                    // patterns in the open column
};

/// Phase A: input-DC replacements in cex-refined rounds. Rebuilds
/// out.target from it and returns false when the interrupt fired (the
/// replacements proven so far are kept).
bool inputDcPhase(aig::Aig& aig, Lit fRef, CareSim& sim,
                  sweep::SweepContext& ctx, util::Random& rng,
                  const DcOptions& opts, DcResult& out) {
  CBQ_OBS_SPAN("synth", "input-dc");
  const Lit fTgt = out.target;
  const Lit notRef = !fRef;
  // Phase A only queries the solver (the manager does not grow), so
  // node-indexed scratch vectors sized now stay valid for every round.
  aig::NodeMap careMap;
  std::vector<std::uint8_t> disqualified(aig.numNodes(), 0);

  bool interrupted = false;
  for (int round = 0; !interrupted && round < opts.maxRounds; ++round) {
    const auto targetOrder = sim.targetOrder();
    // Care-masked representative chains: hash -> positive literals whose
    // masked values share that hash (exact masked compare disambiguates).
    std::unordered_map<std::uint64_t, std::vector<Lit>> repByHash;
    auto addRep = [&](Lit l) { repByHash[sim.careHash(l)].push_back(l); };
    auto findRep = [&](Lit l) -> std::optional<Lit> {
      if (auto it = repByHash.find(sim.careHash(l)); it != repByHash.end())
        for (const Lit c : it->second)
          if (sim.careEqual(l, c)) return c;
      return std::nullopt;
    };
    // PIs of the joint support act as merge representatives too.
    for (const VarId v : sim.support())
      addRep(Lit(aig.piNodeOf(v), false));

    std::vector<std::uint64_t> cexBits(sim.support().size(), 0);
    int cexCount = 0;

    for (const NodeId n : targetOrder) {
      if (ctx.interrupted()) {
        interrupted = true;  // keep the replacements proven so far
        break;
      }
      if (cexCount >= 64) break;
      if (careMap.contains(n) || disqualified[n] != 0) continue;
      const Lit ln(n, false);

      // Proposed candidate: constant, or an earlier node with identical
      // care-masked signature (checking both phases).
      Lit candidate = ln;
      bool haveCandidate = false;
      if (sim.careConstant(ln, false)) {
        candidate = aig::kFalse;
        haveCandidate = true;
      } else if (sim.careConstant(ln, true)) {
        candidate = aig::kTrue;
        haveCandidate = true;
      } else if (auto rep = findRep(ln)) {
        candidate = *rep;
        haveCandidate = true;
      } else if (auto repN = findRep(!ln)) {
        candidate = !*repN;
        haveCandidate = true;
      }
      if (!haveCandidate) {
        addRep(ln);
        continue;
      }

      ++out.stats.satChecks;
      const sat::Verdict verdict =
          ctx.checkEquivUnderCare(notRef, ln, candidate, opts.satBudget);
      switch (verdict) {
        case sat::Verdict::Holds: {
          careMap.set(n, candidate);
          if (candidate.isConstant())
            ++out.stats.constReplacements;
          else
            ++out.stats.mergeReplacements;
          break;
        }
        case sat::Verdict::Fails: {
          ++out.stats.satRefuted;
          for (std::size_t i = 0; i < sim.support().size(); ++i) {
            const std::uint64_t bit =
                ctx.modelOf(sim.support()[i]) ? 1 : 0;
            cexBits[i] |= bit << cexCount;
          }
          ++cexCount;
          // Keep the node available as a representative for later nodes.
          addRep(ln);
          break;
        }
        case sat::Verdict::Unknown: {
          ++out.stats.satUnknown;
          disqualified[n] = 1;
          break;
        }
      }
    }

    if (cexCount == 0) break;
    sim.appendWord(cexBits, cexCount, rng);
  }

  const Lit roots[] = {fTgt};
  out.target = aig.rebuildWithNodeMap(roots, careMap).front();
  return !interrupted;
}

/// Phase B: ODC attempts n := 0/1 on out.target, each committed only when
/// the paper's equivalence check fRef ∨ fTgt' ≡ fRef ∨ fTgt answers
/// Holds. An attempt that a banked care-set pattern already refutes skips
/// the rebuild and the SAT call; every SAT refutation grows the bank. The
/// interrupt is polled before each attempt.
void odcPhase(aig::Aig& aig, Lit fRef, CareSim& sim, sweep::SweepContext& ctx,
              util::Random& rng, const DcOptions& opts, DcResult& out) {
  CBQ_OBS_SPAN("synth", "odc");
  int attempts = 0;
  bool changed = true;
  bool interrupted = false;
  while (changed && attempts < opts.odcAttempts) {
    changed = false;
    const Lit current = out.target;
    sim.retarget(current);
    const Lit curRoots[] = {current};
    const auto order = aig.coneAnds(curRoots);
    const std::size_t curSize = order.size();
    for (const NodeId n : order) {
      if (attempts >= opts.odcAttempts) break;
      for (const bool value : {false, true}) {
        if (attempts >= opts.odcAttempts) break;
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
        if (aig.coneSize(tentRoots) >= curSize) continue;
        // The paper's extra equivalence check: is the EXOR between the
        // node before/after observable at fRef ∨ fTgt?
        const Lit before = aig.mkOr(fRef, current);
        const Lit after = aig.mkOr(fRef, tentative);
        {
          const Lit focusRoots[] = {before, after};
          ctx.focusOn(focusRoots);
        }
        ++out.stats.satChecks;
        switch (ctx.checkEquiv(before, after, opts.satBudget)) {
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
  }
  ctx.noteOdcOutcome(static_cast<std::size_t>(attempts),
                     out.stats.odcReplacements);
}

}  // namespace

DcResult dcSimplify(aig::Aig& aig, Lit fRef, Lit fTgt, const DcOptions& opts,
                    sweep::SweepContext& ctx) {
  DcResult out;
  out.target = fTgt;
  {
    const Lit roots[] = {fTgt};
    out.stats.nodesBefore = aig.coneSize(roots);
  }
  if (fTgt.isConstant() || fRef.isTrue()) {
    // fRef ≡ 1 makes everything don't-care: fRef ∨ fTgt ≡ 1 regardless,
    // so the cheapest valid target is constant false.
    if (fRef.isTrue()) out.target = aig::kFalse;
    out.stats.nodesAfter = aig.coneSize(out.target);
    return out;
  }

  util::Random rng(opts.seed);
  CareSim sim(aig, fRef, fTgt, rng, std::max(opts.numWords, 1),
              std::max(opts.numWords, 1) + std::max(opts.maxRounds, 0) +
                  kOdcBankWords);

  ctx.bind(aig);
  {
    // Phase A never grows the manager, so the joint cone covers every
    // input-DC query; phase B re-focuses per attempt (its miters may
    // strash onto nodes outside this cone).
    const Lit focusRoots[] = {fRef, fTgt};
    ctx.focusOn(focusRoots);
  }

  const bool finished = inputDcPhase(aig, fRef, sim, ctx, rng, opts, out);

  // Feedback-gated: each validation is a global equivalence proof over
  // fRef ∨ fTgt, which on some workloads never accepts — the session's
  // accept-rate tracker turns the phase off there (with re-probes).
  if (opts.useOdc && finished && ctx.shouldAttemptOdc())
    odcPhase(aig, fRef, sim, ctx, rng, opts, out);

  {
    const Lit roots[] = {out.target};
    out.stats.nodesAfter = aig.coneSize(roots);
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
