#include "sweep/sweeper.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "audit/audit.hpp"
#include "bdd/bdd.hpp"
#include "obs/tracer.hpp"
#include "sweep/signatures.hpp"
#include "sweep/sweep_context.hpp"
#include "util/random.hpp"

namespace cbq::sweep {

namespace {

using aig::Lit;
using aig::NodeId;
using aig::VarId;

/// Shared BDD manager node limit of BDD sweeping: cones whose BDDs grow
/// past it drop out and stay unmerged.
constexpr std::size_t kBddNodeLimit = 2000;

/// A random arena's initial words: one per bank word, so a full
/// counterexample bank fills them.
constexpr int kInitialWords = SweepContext::kBankWords;
/// Refinement round limit; the arena reserves one counterexample word
/// per round, so no append is refused.
constexpr int kMaxRounds = 16;
constexpr std::uint64_t kSeed = 0x5eed;

/// BDD sweeping (useSat off): merges every AND of `order` whose
/// size-bounded BDD equals (modulo complement) a constant, a PI or an
/// earlier node's BDD. Every merge is a proven equivalence.
aig::NodeMap bddSweep(const aig::Aig& aig, std::span<const NodeId> order,
                      std::span<const VarId> support, SweepStats& stats) {
  bdd::BddManager bm(kBddNodeLimit);
  std::vector<bdd::BddRef> nodeBdd(aig.numNodes(), bdd::kFalseBdd);
  std::vector<bool> hasBdd(aig.numNodes(), false);
  hasBdd[0] = true;
  // PIs are representatives only: they seed the table in support order.
  std::unordered_map<bdd::BddRef, Lit> bddRep;
  for (const VarId v : support) {
    const NodeId p = aig.piNodeOf(v);
    try {
      nodeBdd[p] = bm.var(v);
    } catch (const bdd::NodeLimitExceeded&) {
      break;
    }
    hasBdd[p] = true;
    bddRep.emplace(nodeBdd[p], Lit(p, false));
  }
  for (const NodeId n : order) {
    const Lit f0 = aig.fanin0(n);
    const Lit f1 = aig.fanin1(n);
    if (!hasBdd[f0.node()] || !hasBdd[f1.node()]) continue;
    try {
      const bdd::BddRef a =
          f0.negated() ? bm.bddNot(nodeBdd[f0.node()]) : nodeBdd[f0.node()];
      const bdd::BddRef b =
          f1.negated() ? bm.bddNot(nodeBdd[f1.node()]) : nodeBdd[f1.node()];
      nodeBdd[n] = bm.bddAnd(a, b);
      hasBdd[n] = true;
    } catch (const bdd::NodeLimitExceeded&) {
      // This cone is too wide for the budget; fanouts drop out too.
    }
  }

  // Pointer-equality detection (modulo complement) in topological order.
  aig::NodeMap merges;
  for (const NodeId n : order) {
    if (!hasBdd[n]) continue;
    const bdd::BddRef b = nodeBdd[n];
    Lit target;
    if (b == bdd::kFalseBdd || b == bdd::kTrueBdd) {
      target = b == bdd::kTrueBdd ? aig::kTrue : aig::kFalse;
      ++stats.constMerges;
    } else if (auto it = bddRep.find(b); it != bddRep.end()) {
      target = it->second;
      ++stats.bddMerges;
    } else {
      bdd::BddRef nb;
      try {
        nb = bm.bddNot(b);
      } catch (const bdd::NodeLimitExceeded&) {
        bddRep.emplace(b, Lit(n, false));
        continue;
      }
      const auto itN = bddRep.find(nb);
      if (itN == bddRep.end()) {
        bddRep.emplace(b, Lit(n, false));
        continue;
      }
      target = !itN->second;
      ++stats.bddMerges;
    }
    merges.set(n, target);
  }
  return merges;
}

/// refine()'s candidate classes: a flat open-addressed table of (key
/// hash, representative) entries, the representative a literal of its
/// normalized function. Linear probing with no deletion places a key's
/// entries along its probe path in insertion order, so a lookup meets
/// the earliest representative first. Sized once per call, cleared per
/// round.
class LeaderTable {
 public:
  explicit LeaderTable(std::size_t reps)
      : slots_(std::bit_ceil(2 * reps + 2)) {}

  void clear() { std::fill(slots_.begin(), slots_.end(), Slot{}); }

  /// The earliest representative with hash `h` that `equal` accepts, or
  /// kFalse (never a representative).
  template <typename Equal>
  [[nodiscard]] Lit find(std::uint64_t h, Equal&& equal) const {
    for (std::size_t i = h & mask(); slots_[i].rep != aig::kFalse;
         i = (i + 1) & mask())
      if (slots_[i].hash == h && equal(slots_[i].rep)) return slots_[i].rep;
    return aig::kFalse;
  }

  void add(std::uint64_t h, Lit rep) {
    std::size_t i = h & mask();
    while (slots_[i].rep != aig::kFalse) i = (i + 1) & mask();
    slots_[i] = {h, rep};
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    Lit rep = aig::kFalse;  // kFalse: empty
  };
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  std::vector<Slot> slots_;
};

/// Overwrites the low bits of `sigs`'s initial random columns with the
/// session's banked counterexamples, one column per bank word, so pairs
/// refuted by earlier sweeps start out split. A support variable no
/// banked pattern assigned keeps its random bits.
void seedFromBank(const aig::Aig& aig, Signatures& sigs,
                  std::span<const VarId> support, const SweepContext& ctx) {
  const int banked = ctx.bankedPatterns();
  std::vector<std::uint64_t> bits(support.size());
  for (int w = 0; w < kInitialWords && w * 64 < banked; ++w) {
    const auto col = static_cast<std::size_t>(w);
    for (std::size_t i = 0; i < support.size(); ++i)
      bits[i] = ctx.bankWord(support[i], w,
                             sigs.of(aig.piNodeOf(support[i]))[col]);
    sigs.refreshWord(col, bits, std::min(64, banked - 64 * w));
  }
}

}  // namespace

bool refine(const aig::Aig& aig, std::span<const NodeId> order,
            std::span<const VarId> support, Signatures& sigs, Lit care,
            SweepContext& ctx, int rounds, std::int64_t satBudget,
            util::Random& rng, SweepStats& stats, aig::NodeMap& merges) {
  // With care everywhere a proof is a plain equivalence and a refutation
  // a pattern worth banking. Under a care set it is neither.
  const bool everywhere = care == aig::kTrue;

  // Candidate pool: PIs first (they can only be representatives), then AND
  // nodes in topological order, so every merge points at a topologically
  // earlier node and the rebuild map is acyclic.
  std::vector<NodeId> pool;
  pool.reserve(support.size() + order.size());
  for (const VarId v : support) pool.push_back(aig.piNodeOf(v));
  pool.insert(pool.end(), order.begin(), order.end());

  // Per pool position: an Unknown answer drops the node for the call.
  std::vector<std::uint8_t> disqualified(pool.size(), 0);
  LeaderTable leaders(pool.size());
  std::vector<std::uint64_t> cexBits(support.size());

  bool interrupted = false;
  for (int round = 0; round < rounds; ++round) {
    CBQ_OBS_SPAN("sweep", "refine-round");
    ++stats.rounds;
    leaders.clear();
    std::fill(cexBits.begin(), cexBits.end(), 0);
    int cexCount = 0;

    for (std::size_t k = 0; k < pool.size(); ++k) {
      const NodeId n = pool[k];
      if (merges.contains(n) || disqualified[k] != 0) continue;
      const Lit ln(n, false);

      // Proposed candidate for an AND: a constant, or the earliest
      // earlier node with an equal normalized signature (hash chain,
      // exact compare). A PI, or an AND with neither, becomes a
      // representative itself.
      const bool isAnd = aig.isAnd(n);
      Lit target;
      if (isAnd && sigs.constantUnder(n, false, care)) {
        target = aig::kFalse;
      } else if (isAnd && sigs.constantUnder(n, true, care)) {
        target = aig::kTrue;
      } else {
        const Signatures::Key key = sigs.normalizedKey(n, care);
        const Lit rep = !isAnd ? aig::kFalse
                               : leaders.find(key.hash, [&](Lit r) {
                                   return sigs.equalNormalized(
                                       n, key.phase, r.node(), r.negated(),
                                       care);
                                 });
        if (rep == aig::kFalse) {
          leaders.add(key.hash, ln ^ key.phase);
          continue;
        }
        target = rep ^ key.phase;
      }

      if (ctx.interrupted()) {
        interrupted = true;  // keep the merges proven so far
        break;
      }
      if (cexCount >= 64) break;  // the next round picks the rest up

      if (sigs.exhaustive()) {
        // Equal truth tables over every care pattern: proven as proposed.
        merges.set(n, target);
        ++stats.simProofs;
        ++(target.isConstant() ? stats.constMerges : stats.satMerges);
        continue;
      }

      ++stats.satChecks;
      const sat::Verdict verdict =
          !everywhere ? ctx.checkEquivUnderCare(care, ln, target, satBudget)
          : target.isConstant()
              ? ctx.checkConstant(ln, target.isTrue(), satBudget)
              : ctx.checkEquiv(ln, target, satBudget);
      switch (verdict) {
        case sat::Verdict::Holds:
          merges.set(n, target);
          ++(target.isConstant() ? stats.constMerges : stats.satMerges);
          if (everywhere) {
            if (target.isConstant())
              ctx.learnConstant(ln, target.isTrue());
            else
              ctx.learnEquiv(ln, target);
          }
          break;
        case sat::Verdict::Fails:
          ++stats.satRefuted;
          if (everywhere) ctx.bankModel(support);
          for (std::size_t i = 0; i < support.size(); ++i)
            cexBits[i] |= std::uint64_t{ctx.modelOf(support[i]) ? 1u : 0u}
                          << cexCount;
          ++cexCount;
          break;
        case sat::Verdict::Unknown:
          ++stats.satUnknown;
          disqualified[k] = 1;
          break;
      }
    }

    if (interrupted || cexCount == 0) break;  // stable or stopped early
    // A full arena refuses the append: the round's patterns are lost and
    // its refuted pairs may be proposed again, but the loop stays sound
    // and ends within `rounds` rounds.
    static_cast<void>(sigs.appendWord(cexBits, cexCount, rng));
  }
  CBQ_AUDIT_CHECK("sweep.refine", audit::auditMergeOrder(aig, order, merges));
  return !interrupted;
}

SweepResult sweep(aig::Aig& aig, std::span<const Lit> roots,
                  const SweepOptions& opts, SweepContext& ctx) {
  CBQ_OBS_SPAN("sweep", "sweep");
  SweepResult out;
  out.roots.assign(roots.begin(), roots.end());
  const auto order = aig.coneAnds(roots);
  if (order.empty()) return out;
  const auto support = aig.supportVars(roots);
  ctx.bind(aig);

  aig::NodeMap merges;
  if (!opts.useSat) {
    merges = bddSweep(aig, order, support, out.stats);
  } else {
    util::Random rng(kSeed);
    Signatures sigs(aig, order, support, rng, kInitialWords,
                    kInitialWords + kMaxRounds);
    if (!sigs.exhaustive()) {
      seedFromBank(aig, sigs, support, ctx);
      // Every compare point lives inside the cones of `roots`, and the
      // manager does not grow before the final rebuild — one focus call
      // covers every check of this sweep even when the session's solver
      // carries the whole run's history. Exhaustive signatures make no
      // SAT call.
      ctx.focusOn(roots);
    }
    CBQ_AUDIT_CHECK("sweep.signatures", audit::auditSignatures(sigs));
    refine(aig, order, support, sigs, aig::kTrue, ctx, kMaxRounds,
           opts.satBudget, rng, out.stats, merges);
  }

  out.roots = aig.rebuildWithNodeMap(roots, merges);
  CBQ_AUDIT_CHECK("sweep.merge", audit::auditAig(aig));
  return out;
}

}  // namespace cbq::sweep
