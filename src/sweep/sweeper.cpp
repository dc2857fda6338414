#include "sweep/sweeper.hpp"

#include <algorithm>
#include <unordered_map>

#include "audit/audit.hpp"
#include "bdd/bdd.hpp"
#include "obs/tracer.hpp"
#include "sweep/signatures.hpp"
#include "sweep/sweep_context.hpp"
#include "sweep/union_find.hpp"
#include "util/random.hpp"

namespace cbq::sweep {

namespace {

using aig::Lit;
using aig::NodeId;
using aig::VarId;

/// Shared BDD manager node limit of layer 2: cones whose BDDs grow past
/// it drop out of BDD sweeping and are left to the SAT layer.
constexpr std::size_t kBddNodeLimit = 2000;

/// Nodes reachable from `roots` when merges in `mergeMap` are applied —
/// backward mode skips compare points that merging has already detached.
/// Returned as a node-indexed flag vector.
std::vector<std::uint8_t> referencedNodes(const aig::Aig& aig,
                                          std::span<const Lit> roots,
                                          const aig::NodeMap& mergeMap) {
  std::vector<std::uint8_t> seen(aig.numNodes(), 0);
  std::vector<NodeId> stack;
  for (const Lit r : roots) stack.push_back(r.node());
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (seen[n] != 0) continue;
    seen[n] = 1;
    if (mergeMap.contains(n)) {
      stack.push_back(mergeMap.at(n).node());
    } else if (aig.isAnd(n)) {
      stack.push_back(aig.fanin0(n).node());
      stack.push_back(aig.fanin1(n).node());
    }
  }
  return seen;
}

}  // namespace

SweepResult sweep(aig::Aig& aig, std::span<const Lit> roots,
                  const SweepOptions& opts, SweepContext& ctx) {
  CBQ_OBS_SPAN("sweep", "sweep");
  SweepResult out;
  out.roots.assign(roots.begin(), roots.end());
  const auto order = aig.coneAnds(roots);
  out.stats.nodesBefore = order.size();
  if (order.empty()) {
    out.stats.nodesAfter = 0;
    return out;
  }
  const auto support = aig.supportVars(roots);

  util::Random rng(opts.seed);
  const int initialWords = std::max(opts.numWords, 1);
  const int maxWords = opts.maxWords > 0
                           ? opts.maxWords
                           : initialWords + std::max(opts.maxRounds, 0);
  Signatures sigs(aig, order, support, rng, initialWords, maxWords);

  // Candidate pool: PIs first (they can only be representatives), then AND
  // nodes in topological order, so every merge points at a topologically
  // earlier node and the final rebuild map is acyclic.
  std::vector<NodeId> pool;
  pool.reserve(support.size() + order.size());
  for (const VarId v : support) pool.push_back(aig.piNodeOf(v));
  pool.insert(pool.end(), order.begin(), order.end());

  // No SAT checks grow the manager before the final rebuild, so these
  // node-indexed scratch vectors stay correctly sized for the whole run.
  aig::NodeMap mergeMap;
  std::vector<std::uint8_t> disqualified(aig.numNodes(), 0);

  ctx.bind(aig);

  // ----- layer 2: BDD sweeping -------------------------------------------
  if (opts.useBdd) {
    bdd::BddManager bm(kBddNodeLimit);
    std::vector<bdd::BddRef> nodeBdd(aig.numNodes(), bdd::kFalseBdd);
    std::vector<bool> hasBdd(aig.numNodes(), false);
    nodeBdd[0] = bdd::kFalseBdd;
    hasBdd[0] = true;
    for (const VarId v : support) {
      const NodeId p = aig.piNodeOf(v);
      try {
        nodeBdd[p] = bm.var(v);
        hasBdd[p] = true;
      } catch (const bdd::NodeLimitExceeded&) {
        break;
      }
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
    // Pointer-equality detection (modulo complement) in pool order. Every
    // merge is a proven equivalence — feed the session's pair cache so a
    // later round (or call) whose BDD layer blows the limit still knows.
    std::unordered_map<bdd::BddRef, Lit> bddRep;
    for (const NodeId n : pool) {
      if (!hasBdd[n]) continue;
      const bdd::BddRef b = nodeBdd[n];
      if (aig.isAnd(n)) {
        if (b == bdd::kFalseBdd || b == bdd::kTrueBdd) {
          const Lit target = b == bdd::kTrueBdd ? aig::kTrue : aig::kFalse;
          mergeMap.set(n, target);
          ctx.recordProven(Lit(n, false), target);
          ++out.stats.constMerges;
          continue;
        }
        if (auto it = bddRep.find(b); it != bddRep.end()) {
          mergeMap.set(n, it->second);
          ctx.recordProven(Lit(n, false), it->second);
          ++out.stats.bddMerges;
          continue;
        }
        bdd::BddRef nb;
        try {
          nb = bm.bddNot(b);
        } catch (const bdd::NodeLimitExceeded&) {
          bddRep.emplace(b, Lit(n, false));
          continue;
        }
        if (auto it = bddRep.find(nb); it != bddRep.end()) {
          mergeMap.set(n, !it->second);
          ctx.recordProven(Lit(n, false), !it->second);
          ++out.stats.bddMerges;
          continue;
        }
      }
      bddRep.emplace(b, Lit(n, false));
    }
  }

  // ----- layer 3: SAT sweeping with cex-guided refinement ------------------
  // Every compare point lives inside the cones of `roots`, and the manager
  // does not grow before the final rebuild — one focus call covers every
  // check of this sweep even when the session's solver carries the whole
  // run's history.
  if (opts.useSat) ctx.focusOn(roots);

  struct EquivClass {
    Lit rep;                      // representative literal (phase-adjusted)
    std::vector<NodeId> members;  // candidate nodes, pool order
    std::uint32_t maxLevel = 0;
    bool constant = false;        // class of constant candidates
    bool constValue = false;
  };

  // Per-slot normalization phase, valid for the current round's classes.
  std::vector<std::uint8_t> phaseOf(pool.size(), 0);

  // NodeId → pool slot, built once (the pool is fixed across rounds).
  constexpr std::uint32_t kNoSlot = 0xffffffffu;
  std::vector<std::uint32_t> slotOf(aig.numNodes(), kNoSlot);
  for (std::uint32_t slot = 0; slot < pool.size(); ++slot)
    slotOf[pool[slot]] = slot;

  bool interrupted = false;
  for (int round = 0;
       opts.useSat && !interrupted && round < opts.maxRounds; ++round) {
    CBQ_OBS_SPAN("sweep", "refine-round");
    ++out.stats.rounds;

    // Build candidate classes from the current signatures: a dense
    // union-find over pool slots keyed by 64-bit mixed hashes, with exact
    // signature comparison refereeing hash collisions. One pass in pool
    // order: constant candidates become singleton classes in place, every
    // other candidate joins the first earlier leader with an equal
    // normalized signature or becomes a leader itself.
    std::vector<std::uint8_t> referenced;
    if (opts.backward) referenced = referencedNodes(aig, roots, mergeMap);

    UnionFind uf(pool.size());
    std::vector<EquivClass> classes;
    std::vector<std::uint8_t> active(pool.size(), 0);
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> leaders;
    leaders.reserve(pool.size());
    for (std::uint32_t slot = 0; slot < pool.size(); ++slot) {
      const NodeId n = pool[slot];
      if (mergeMap.contains(n) || disqualified[n] != 0) continue;
      if (opts.backward && referenced[n] == 0) {
        if (aig.isAnd(n)) ++out.stats.skippedUnreferenced;
        continue;
      }
      if (aig.isAnd(n) && (sigs.allZero(n) || sigs.allOne(n))) {
        EquivClass cls;
        cls.constValue = sigs.allOne(n);
        cls.rep = cls.constValue ? aig::kTrue : aig::kFalse;
        cls.members = {n};
        cls.maxLevel = aig.level(n);
        cls.constant = true;
        classes.push_back(std::move(cls));
        continue;
      }
      const Signatures::Key key = sigs.normalizedKey(n);
      phaseOf[slot] = key.phase ? 1 : 0;
      active[slot] = 1;
      auto& chain = leaders[key.hash];
      bool matched = false;
      for (const std::uint32_t leader : chain) {
        if (sigs.equalNormalized(n, key.phase, pool[leader],
                                 phaseOf[leader] != 0)) {
          uf.unite(leader, slot);
          matched = true;
          break;
        }
      }
      if (!matched) chain.push_back(slot);
    }
    CBQ_AUDIT_CHECK("sweep.unite", audit::auditUnionFind(uf));

    // Gather union-find trees into member lists (pool order ⇒ members are
    // topologically ordered and the root is the earliest).
    std::unordered_map<std::uint32_t, std::size_t> classOfRoot;
    for (std::uint32_t slot = 0; slot < pool.size(); ++slot) {
      if (active[slot] == 0) continue;
      const std::uint32_t root = uf.find(slot);
      auto [it, inserted] = classOfRoot.emplace(root, classes.size());
      if (inserted) {
        EquivClass cls;
        cls.rep = Lit(pool[root], false) ^ (phaseOf[root] != 0);
        classes.push_back(std::move(cls));
      }
      auto& cls = classes[it->second];
      cls.members.push_back(pool[slot]);
      cls.maxLevel = std::max(cls.maxLevel, aig.level(pool[slot]));
    }

    // Processing order: forward = natural (class of earliest rep first);
    // backward = classes containing the highest nodes first.
    std::vector<std::size_t> clsOrder(classes.size());
    for (std::size_t i = 0; i < clsOrder.size(); ++i) clsOrder[i] = i;
    if (opts.backward) {
      std::stable_sort(clsOrder.begin(), clsOrder.end(),
                       [&](std::size_t a, std::size_t b) {
                         return classes[a].maxLevel > classes[b].maxLevel;
                       });
    }

    std::vector<std::uint64_t> cexBits(support.size(), 0);
    int cexCount = 0;

    for (const std::size_t ci : clsOrder) {
      if (interrupted) break;
      auto& cls = classes[ci];
      const std::size_t begin = cls.constant ? 0 : 1;
      if (cls.members.size() <= begin) continue;

      std::vector<NodeId> members(cls.members.begin() +
                                      static_cast<std::ptrdiff_t>(begin),
                                  cls.members.end());
      if (opts.backward) std::reverse(members.begin(), members.end());

      for (const NodeId m : members) {
        if (ctx.interrupted()) {
          interrupted = true;  // rebuild with the merges proven so far
          break;
        }
        if (cexCount >= 64) break;  // next round will pick the rest up
        if (mergeMap.contains(m) || disqualified[m] != 0) continue;

        Lit target;
        if (cls.constant) {
          target = cls.constValue ? aig::kTrue : aig::kFalse;
        } else {
          // Relative phase of m against the normalized class function.
          target = cls.rep ^ (phaseOf[slotOf[m]] != 0);
        }

        // Session pair cache first: facts proven or refuted in ANY earlier
        // round/call on this manager skip the solver entirely.
        switch (ctx.lookupPair(Lit(m, false), target)) {
          case SweepContext::PairFact::Proven: {
            mergeMap.set(m, target);
            ++out.stats.cacheHitsProven;
            if (cls.constant)
              ++out.stats.constMerges;
            else
              ++out.stats.satMerges;
            continue;
          }
          case SweepContext::PairFact::Refuted:
            // Not equivalent — and the distinguishing pattern was already
            // folded into some earlier signature word, so no re-split is
            // needed; just leave m unmerged.
            ++out.stats.cacheHitsRefuted;
            continue;
          case SweepContext::PairFact::Unknown:
            break;
        }

        sat::Verdict verdict;
        if (cls.constant) {
          verdict = ctx.checkConstant(Lit(m, false), cls.constValue,
                                       opts.satBudget);
        } else {
          verdict = ctx.checkEquiv(Lit(m, false), target, opts.satBudget);
        }
        ++out.stats.satChecks;

        switch (verdict) {
          case sat::Verdict::Holds: {
            mergeMap.set(m, target);
            ctx.recordProven(Lit(m, false), target);
            if (cls.constant) {
              ++out.stats.constMerges;
              ctx.learnConstant(Lit(m, false), cls.constValue);
            } else {
              ++out.stats.satMerges;
              ctx.learnEquiv(Lit(m, false), target);
            }
            break;
          }
          case sat::Verdict::Fails: {
            ++out.stats.satRefuted;
            ctx.recordRefuted(Lit(m, false), target);
            for (std::size_t i = 0; i < support.size(); ++i) {
              const std::uint64_t bit = ctx.modelOf(support[i]) ? 1 : 0;
              cexBits[i] |= bit << cexCount;
            }
            ++cexCount;
            break;
          }
          case sat::Verdict::Unknown: {
            ++out.stats.satUnknown;
            disqualified[m] = 1;
            break;
          }
        }
      }
    }

    if (interrupted || cexCount == 0) break;  // stable or stopped early
    // A full arena refuses the append: the distinguishing patterns are
    // lost, but the round loop stays sound — refuted pairs are skipped
    // via the session cache, so later rounds still make proof progress.
    if (!sigs.appendWord(cexBits, cexCount, rng)) ++out.stats.arenaFull;
  }

  out.roots = aig.rebuildWithNodeMap(roots, mergeMap);
  CBQ_AUDIT_CHECK("sweep.merge", audit::auditAig(aig));
  out.stats.nodesAfter = aig.coneSize(out.roots);
  return out;
}

}  // namespace cbq::sweep
