#include "prep/passes.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sweep/sweeper.hpp"
#include "util/random.hpp"

namespace cbq::prep {

namespace {

using aig::Lit;
using aig::VarId;
using mc::Network;

/// Assembles a reduced network: `kept[i]` selects the surviving latches,
/// `next`/`bad` are the (possibly rewritten) cones in `src`'s manager. The
/// cones are transferred into a fresh manager, which drops dead nodes and
/// re-applies the construction rewrite rules.
Network rebuildNetwork(const Network& src, const std::vector<char>& kept,
                       const std::vector<Lit>& next, Lit bad,
                       const std::vector<VarId>& inputVars) {
  Network out;
  out.name = src.name;
  out.inputVars = inputVars;
  std::vector<Lit> roots;
  roots.reserve(next.size() + 1);
  for (std::size_t i = 0; i < src.numLatches(); ++i) {
    if (!kept[i]) continue;
    out.stateVars.push_back(src.stateVars[i]);
    out.init.push_back(src.init[i]);
    roots.push_back(next[i]);
  }
  roots.push_back(bad);
  const auto moved = out.aig.transferFrom(src.aig, roots);
  out.next.assign(moved.begin(), moved.end() - 1);
  out.bad = moved.back();
  return out;
}

/// The latch's own non-negated literal, or nullopt when the variable has
/// no PI node in `g` (then nothing in `g` can reference it). Read-only —
/// Aig::pi() would create the node.
std::optional<Lit> latchLit(const aig::Aig& g, VarId v) {
  if (!g.hasPi(v)) return std::nullopt;
  return Lit(g.piNodeOf(v), false);
}

}  // namespace

PassResult coiReduction(const Network& net, obs::Metrics* stats) {
  const std::size_t numL = net.numLatches();

  std::unordered_map<VarId, std::size_t> latchOf;
  latchOf.reserve(numL);
  for (std::size_t i = 0; i < numL; ++i) latchOf.emplace(net.stateVars[i], i);

  // Per-cone variable supports up front: entry i is the i-th next-state
  // cone, entry numL the bad cone.
  std::vector<std::vector<VarId>> supportOf(numL + 1);
  for (std::size_t i = 0; i <= numL; ++i)
    supportOf[i] = net.aig.supportVars(i < numL ? net.next[i] : net.bad);

  // Transitive support closure over the latch dependency graph, seeded by
  // the bad cone's state support.
  std::vector<char> needed(numL, 0);
  std::vector<std::size_t> work;
  auto addSupport = [&](const std::vector<VarId>& vars) {
    for (const VarId v : vars) {
      const auto it = latchOf.find(v);
      if (it == latchOf.end() || needed[it->second]) continue;
      needed[it->second] = 1;
      work.push_back(it->second);
    }
  };
  addSupport(supportOf[numL]);
  while (!work.empty()) {
    const std::size_t i = work.back();
    work.pop_back();
    addSupport(supportOf[i]);
  }

  // Inputs survive iff they feed a kept cone.
  std::vector<VarId> support = supportOf[numL];
  for (std::size_t i = 0; i < numL; ++i)
    if (needed[i])
      support.insert(support.end(), supportOf[i].begin(), supportOf[i].end());
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  auto inSupport = [&](VarId v) {
    return std::binary_search(support.begin(), support.end(), v);
  };
  std::vector<VarId> keptInputs;
  std::vector<VarId> droppedInputs;
  for (const VarId v : net.inputVars)
    (inSupport(v) ? keptInputs : droppedInputs).push_back(v);

  const std::size_t droppedLatches =
      numL - static_cast<std::size_t>(
                 std::count(needed.begin(), needed.end(), char{1}));
  if (droppedLatches == 0 && droppedInputs.empty()) return {};

  if (stats) {
    stats->add("prep.coi_latches_dropped",
               static_cast<std::int64_t>(droppedLatches));
    stats->add("prep.coi_inputs_dropped",
               static_cast<std::int64_t>(droppedInputs.size()));
  }
  PassResult out;
  out.net = rebuildNetwork(net, needed, net.next, net.bad, keptInputs);
  out.transform = std::make_shared<CoiTransform>(std::move(droppedInputs));
  out.changed = true;
  return out;
}

PassResult constLatchSweep(const Network& net, obs::Metrics* stats) {
  const std::size_t numL = net.numLatches();

  // Read-only candidate scan first: the common case is "nothing stuck",
  // and it must not cost a full network clone.
  bool anyCand = false;
  for (std::size_t i = 0; i < numL && !anyCand; ++i) {
    const Lit nx = net.next[i];
    anyCand = nx == (net.init[i] ? aig::kTrue : aig::kFalse) ||
              nx == latchLit(net.aig, net.stateVars[i]);
  }
  if (!anyCand) return {};

  Network cur = mc::cloneNetwork(net);  // compose mutates the manager

  std::vector<char> kept(numL, 1);
  std::vector<VarId> droppedVars;

  // Substitution to closure: replacing one constant latch can turn
  // another latch's next-state function constant.
  for (;;) {
    std::vector<aig::VarSub> sub;
    for (std::size_t i = 0; i < numL; ++i) {
      if (!kept[i]) continue;
      const Lit nx = cur.next[i];
      const Lit initLit = cur.init[i] ? aig::kTrue : aig::kFalse;
      const bool stuckConst = nx == initLit;  // next == reset constant
      const bool selfLoop = nx == cur.aig.pi(cur.stateVars[i]);
      if (!stuckConst && !selfLoop) continue;
      kept[i] = 0;
      droppedVars.push_back(cur.stateVars[i]);
      sub.emplace_back(cur.stateVars[i], initLit);
    }
    if (sub.empty()) break;
    for (std::size_t i = 0; i < numL; ++i)
      if (kept[i]) cur.next[i] = cur.aig.compose(cur.next[i], sub);
    cur.bad = cur.aig.compose(cur.bad, sub);
  }

  if (droppedVars.empty()) return {};

  if (stats)
    stats->add("prep.const_latches_dropped",
               static_cast<std::int64_t>(droppedVars.size()));
  PassResult out;
  out.net = rebuildNetwork(cur, kept, cur.next, cur.bad, cur.inputVars);
  out.transform =
      std::make_shared<ConstLatchTransform>(std::move(droppedVars));
  out.changed = true;
  return out;
}

PassResult structuralSimplify(const Network& net, std::int64_t satBudget,
                              std::size_t maxAnds, double minShrink,
                              std::function<bool()> interrupt,
                              obs::Metrics* stats) {
  if (maxAnds != 0 && net.aig.numAnds() > maxAnds) return {};

  Network cur = mc::cloneNetwork(net);
  std::vector<Lit> roots(cur.next.begin(), cur.next.end());
  roots.push_back(cur.bad);

  sweep::SweepOptions so;
  so.satBudget = satBudget;
  sweep::SweepContext ctx;
  ctx.setInterrupt(std::move(interrupt));
  const auto sw = sweep::sweep(cur.aig, roots, so, ctx);

  std::vector<char> kept(cur.numLatches(), 1);
  std::vector<Lit> next(sw.roots.begin(), sw.roots.end() - 1);
  PassResult out;
  out.net = rebuildNetwork(cur, kept, next, sw.roots.back(), cur.inputVars);
  out.changed =
      out.net.aig.numAnds() < net.aig.numAnds() &&
      static_cast<double>(out.net.aig.numAnds()) <=
      static_cast<double>(net.aig.numAnds()) * (1.0 - minShrink);
  if (!out.changed) return {};

  if (stats) {
    stats->add("prep.sweep_merges",
               static_cast<std::int64_t>(sw.stats.bddMerges +
                                         sw.stats.satMerges +
                                         sw.stats.constMerges));
    stats->add("prep.sweep_ands_removed",
               static_cast<std::int64_t>(net.aig.numAnds() -
                                         out.net.aig.numAnds()));
  }
  out.transform = std::make_shared<StructuralTransform>();
  return out;
}

PassResult latchCorrespondence(const Network& net, std::size_t maxAnds,
                               std::size_t growthLimit,
                               std::function<bool()> interrupt,
                               obs::Metrics* stats) {
  const std::size_t numL = net.numLatches();
  if (numL < 2) return {};
  // Gate on what the compose rounds actually touch — the next-state
  // cones — not the whole manager: a giant bad cone (the million-gate
  // bench family) must not disable the pass that collapses it.
  std::vector<Lit> nextRoots(net.next.begin(), net.next.end());
  if (maxAnds != 0 && net.aig.coneSize(nextRoots) > maxAnds) return {};

  // Greatest-fixpoint refinement: optimistic classes by reset value, then
  // split while members' next-state functions (with every latch replaced
  // by its class representative) differ structurally.
  // Class ids stay dense (first-seen order), so "no class split" is
  // exactly `newCount == numClasses`.
  std::vector<std::size_t> classOf(numL);
  std::size_t numClasses = 0;
  {
    std::size_t byInit[2] = {numL, numL};
    for (std::size_t i = 0; i < numL; ++i) {
      std::size_t& id = byInit[net.init[i] ? 1 : 0];
      if (id == numL) id = numClasses++;
      classOf[i] = id;
    }
  }

  // ----- simulation prefilter (read-only on `net`) -------------------------
  // Drive every latch variable with its current class's random word,
  // inputs with fresh noise, simulate the next-state cones word-parallel,
  // and split classes whose members' next-state words differ. A split
  // here only anticipates a structural split below (see passes.hpp), but
  // costs one O(cone) simulation instead of a manager-growing compose
  // round.
  {
    std::vector<Lit> simRoots(net.next.begin(), net.next.end());
    const auto simOrder = net.aig.coneAnds(simRoots);
    const auto supVars = net.aig.supportVars(simRoots);
    std::unordered_map<VarId, std::size_t> latchOf;
    latchOf.reserve(numL);
    for (std::size_t i = 0; i < numL; ++i)
      latchOf.emplace(net.stateVars[i], i);

    util::Random rng(0x1a7c4c0221ull);
    std::vector<std::uint64_t> val(net.aig.numNodes(), 0);
    std::size_t simRounds = 0;
    for (;;) {
      if (interrupt && interrupt()) return {};
      // Words: one per class (shared by its members), fresh noise per
      // input — all drawn in fixed (class id / support) order.
      std::vector<std::uint64_t> classWord(numClasses);
      for (auto& w : classWord) w = rng.next64();
      for (std::size_t i = 0; i < numL; ++i)
        if (net.aig.hasPi(net.stateVars[i]))
          val[net.aig.piNodeOf(net.stateVars[i])] = classWord[classOf[i]];
      for (const VarId v : supVars)
        if (!latchOf.contains(v)) val[net.aig.piNodeOf(v)] = rng.next64();

      for (const aig::NodeId n : simOrder) {
        const Lit f0 = net.aig.fanin0(n);
        const Lit f1 = net.aig.fanin1(n);
        const std::uint64_t a =
            val[f0.node()] ^ (f0.negated() ? ~std::uint64_t{0} : 0);
        const std::uint64_t b =
            val[f1.node()] ^ (f1.negated() ? ~std::uint64_t{0} : 0);
        val[n] = a & b;
      }

      std::unordered_map<std::uint64_t, std::size_t> wordId;
      std::vector<std::size_t> newClassOf(numL);
      std::size_t newCount = 0;
      std::unordered_map<std::uint64_t, std::size_t> splitId;
      for (std::size_t i = 0; i < numL; ++i) {
        const Lit nx = net.next[i];
        const std::uint64_t w =
            val[nx.node()] ^ (nx.negated() ? ~std::uint64_t{0} : 0);
        // Dense word ids keep the split key in one 64-bit word.
        const auto [wit, winserted] = wordId.emplace(w, wordId.size());
        const std::uint64_t key =
            (static_cast<std::uint64_t>(classOf[i]) << 33) |
            static_cast<std::uint64_t>(wit->second);
        const auto [it, inserted] = splitId.emplace(key, newCount);
        if (inserted) ++newCount;
        newClassOf[i] = it->second;
      }
      ++simRounds;
      if (newCount == numClasses) break;  // no sim-distinguishable pair left
      classOf = std::move(newClassOf);
      numClasses = newCount;
    }
    if (stats)
      stats->add("prep.corr_sim_rounds",
                 static_cast<std::int64_t>(simRounds));
  }

  Network cur = mc::cloneNetwork(net);  // compose mutates the manager
  const std::size_t nodeCap =
      growthLimit == 0 ? 0 : cur.aig.numNodes() * growthLimit;

  for (;;) {
    // The refinement is an optimization; abandoning it mid-way (budget
    // fired, or compose rounds bloated the working manager past the cap)
    // is sound — the pass just reports no change.
    if (interrupt && interrupt()) return {};
    if (nodeCap != 0 && cur.aig.numNodes() > nodeCap) return {};
    // Representative = lowest latch index in the class.
    std::vector<std::size_t> repOf(numClasses, numL);
    for (std::size_t i = 0; i < numL; ++i)
      if (repOf[classOf[i]] == numL) repOf[classOf[i]] = i;

    std::vector<aig::VarSub> sub;
    for (std::size_t i = 0; i < numL; ++i) {
      const std::size_t rep = repOf[classOf[i]];
      if (rep != i)
        sub.emplace_back(cur.stateVars[i],
                         cur.aig.pi(cur.stateVars[rep]));
    }

    // Split classes by the substituted next-state literal. Structural
    // hashing canonicalizes equal structure to equal literals, so literal
    // equality is a sound (conservative) equivalence proof.
    std::unordered_map<std::uint64_t, std::size_t> splitId;
    std::vector<std::size_t> newClassOf(numL);
    std::size_t newCount = 0;
    for (std::size_t i = 0; i < numL; ++i) {
      const Lit nx = cur.aig.compose(cur.next[i], sub);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(classOf[i]) << 33) |
          static_cast<std::uint64_t>(nx.raw());
      const auto [it, inserted] = splitId.emplace(key, newCount);
      if (inserted) ++newCount;
      newClassOf[i] = it->second;
    }
    if (newCount == numClasses) break;  // stable partition
    classOf = std::move(newClassOf);
    numClasses = newCount;
  }

  std::vector<std::size_t> repOf(numClasses, numL);
  for (std::size_t i = 0; i < numL; ++i)
    if (repOf[classOf[i]] == numL) repOf[classOf[i]] = i;

  std::vector<char> kept(numL, 1);
  std::vector<aig::VarSub> finalSub;
  std::vector<std::pair<VarId, VarId>> merged;
  for (std::size_t i = 0; i < numL; ++i) {
    const std::size_t rep = repOf[classOf[i]];
    if (rep == i) continue;
    kept[i] = 0;
    finalSub.emplace_back(cur.stateVars[i], cur.aig.pi(cur.stateVars[rep]));
    merged.emplace_back(cur.stateVars[i], cur.stateVars[rep]);
  }
  if (merged.empty()) return {};

  for (std::size_t i = 0; i < numL; ++i)
    if (kept[i]) cur.next[i] = cur.aig.compose(cur.next[i], finalSub);
  cur.bad = cur.aig.compose(cur.bad, finalSub);

  if (stats)
    stats->add("prep.corr_latches_merged",
               static_cast<std::int64_t>(merged.size()));
  PassResult out;
  out.net = rebuildNetwork(cur, kept, cur.next, cur.bad, cur.inputVars);
  out.transform = std::make_shared<LatchCorrTransform>(std::move(merged));
  out.changed = true;
  return out;
}

}  // namespace cbq::prep
