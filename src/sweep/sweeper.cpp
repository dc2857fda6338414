#include "sweep/sweeper.hpp"

#include <algorithm>
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

}  // namespace

bool refine(const aig::Aig& aig, std::span<const NodeId> order,
            std::span<const VarId> support, Signatures& sigs, Lit care,
            SweepContext& ctx, int rounds, std::int64_t satBudget,
            util::Random& rng, SweepStats& stats, aig::NodeMap& merges) {
  // With care everywhere a proof is a plain equivalence: it may enter the
  // pair cache and the solver. Under a care set it is neither.
  const bool everywhere = care == aig::kTrue;

  // Candidate pool: PIs first (they can only be representatives), then AND
  // nodes in topological order, so every merge points at a topologically
  // earlier node and the rebuild map is acyclic.
  std::vector<NodeId> pool;
  pool.reserve(support.size() + order.size());
  for (const VarId v : support) pool.push_back(aig.piNodeOf(v));
  pool.insert(pool.end(), order.begin(), order.end());

  // The loop only queries the solver (the manager does not grow), so
  // node-indexed scratch sized now stays valid for every round.
  std::vector<std::uint8_t> disqualified(aig.numNodes(), 0);
  // Representatives by key hash, as literals of their normalized
  // function (complemented when the key's phase is).
  std::unordered_map<std::uint64_t, std::vector<Lit>> leaders;
  std::vector<std::uint64_t> cexBits(support.size());

  bool interrupted = false;
  for (int round = 0; round < rounds; ++round) {
    CBQ_OBS_SPAN("sweep", "refine-round");
    ++stats.rounds;
    leaders.clear();
    std::fill(cexBits.begin(), cexBits.end(), 0);
    int cexCount = 0;

    for (const NodeId n : pool) {
      if (merges.contains(n) || disqualified[n] != 0) continue;
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
        auto& chain = leaders[key.hash];
        const auto rep =
            !isAnd ? chain.end()
                   : std::find_if(chain.begin(), chain.end(), [&](Lit r) {
                       return sigs.equalNormalized(n, key.phase, r.node(),
                                                   r.negated(), care);
                     });
        if (rep == chain.end()) {
          chain.push_back(ln ^ key.phase);
          continue;
        }
        target = *rep ^ key.phase;
      }

      if (ctx.interrupted()) {
        interrupted = true;  // keep the merges proven so far
        break;
      }
      if (cexCount >= 64) break;  // the next round picks the rest up

      if (sigs.exhaustive()) {
        // Equal truth tables over every care pattern: proven as proposed,
        // with no cache lookup (a cached refutation cannot exist) and no
        // cache entry (re-proving costs one signature compare).
        merges.set(n, target);
        ++stats.simProofs;
        ++(target.isConstant() ? stats.constMerges : stats.satMerges);
        continue;
      }

      if (everywhere) {
        // Session pair cache first: facts proven or refuted in ANY
        // earlier round/call on this manager skip the solver. A refuted
        // pair's distinguishing pattern already split some earlier
        // signature word, so the node just stays unmerged.
        const auto fact = ctx.lookupPair(ln, target);
        if (fact == SweepContext::PairFact::Proven) {
          merges.set(n, target);
          ++stats.cacheHitsProven;
          ++(target.isConstant() ? stats.constMerges : stats.satMerges);
          continue;
        }
        if (fact == SweepContext::PairFact::Refuted) {
          ++stats.cacheHitsRefuted;
          continue;
        }
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
            ctx.recordProven(ln, target);
            if (target.isConstant())
              ctx.learnConstant(ln, target.isTrue());
            else
              ctx.learnEquiv(ln, target);
          }
          break;
        case sat::Verdict::Fails:
          ++stats.satRefuted;
          if (everywhere) ctx.recordRefuted(ln, target);
          for (std::size_t i = 0; i < support.size(); ++i)
            cexBits[i] |= std::uint64_t{ctx.modelOf(support[i]) ? 1u : 0u}
                          << cexCount;
          ++cexCount;
          break;
        case sat::Verdict::Unknown:
          ++stats.satUnknown;
          disqualified[n] = 1;
          break;
      }
    }

    if (interrupted || cexCount == 0) break;  // stable or stopped early
    // A full arena refuses the append: the distinguishing patterns are
    // lost, but the loop stays sound — and with care everywhere refuted
    // pairs are skipped via the session cache, so later rounds still
    // make proof progress.
    if (!sigs.appendWord(cexBits, cexCount, rng)) ++stats.arenaFull;
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
  out.stats.nodesBefore = order.size();
  if (order.empty()) return out;
  const auto support = aig.supportVars(roots);
  ctx.bind(aig);

  aig::NodeMap merges;
  if (!opts.useSat) {
    merges = bddSweep(aig, order, support, out.stats);
  } else {
    util::Random rng(opts.seed);
    const int initialWords = std::max(opts.numWords, 1);
    const int maxWords = opts.maxWords > 0
                             ? opts.maxWords
                             : initialWords + std::max(opts.maxRounds, 0);
    Signatures sigs(aig, order, support, rng, initialWords, maxWords);
    CBQ_AUDIT_CHECK("sweep.signatures", audit::auditSignatures(sigs));
    // Every compare point lives inside the cones of `roots`, and the
    // manager does not grow before the final rebuild — one focus call
    // covers every check of this sweep even when the session's solver
    // carries the whole run's history. Exhaustive signatures make no SAT
    // call.
    if (!sigs.exhaustive()) ctx.focusOn(roots);
    refine(aig, order, support, sigs, aig::kTrue, ctx, opts.maxRounds,
           opts.satBudget, rng, out.stats, merges);
  }

  out.roots = aig.rebuildWithNodeMap(roots, merges);
  CBQ_AUDIT_CHECK("sweep.merge", audit::auditAig(aig));
  out.stats.nodesAfter = aig.coneSize(out.roots);
  return out;
}

}  // namespace cbq::sweep
