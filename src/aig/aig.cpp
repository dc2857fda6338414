#include "aig/aig.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>
#include "util/fault.hpp"

namespace cbq::aig {

namespace {

/// All-ones / all-zero mask for complemented simulation words.
std::uint64_t negMask(bool negated) {
  return negated ? ~std::uint64_t{0} : std::uint64_t{0};
}

}  // namespace

Aig::Aig() {
  // Process-unique identity (see uid()): a fresh value per constructed
  // manager; moves carry it along with the node space it describes.
  static std::atomic<std::uint64_t> nextUid{1};
  uid_ = nextUid.fetch_add(1, std::memory_order_relaxed);
  // Node 0: the constant-FALSE node.
  nodes_.push_back(Node{kFalse, kFalse, 0});
  stamp_.push_back(0);
}

NodeId Aig::newNode(Lit f0, Lit f1, std::uint32_t level) {
  // Injection site: AIG growth is where every engine's memory pressure
  // concentrates (pre-images, unrollings, clones all land here).
  CBQ_FAULT_POINT("aig.grow");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{f0, f1, level});
  stamp_.push_back(0);
  return id;
}

Lit Aig::pi(VarId var) {
  if (var < piByVar_.size() && piByVar_[var] != 0)
    return Lit(piByVar_[var], false);
  const NodeId id = newNode(kPiMark, Lit::fromRaw(var), 0);
  pis_.push_back(id);
  if (var >= piByVar_.size()) piByVar_.resize(var + 1, 0);
  piByVar_[var] = id;
  return Lit(id, false);
}

Lit Aig::mkAndRaw(Lit a, Lit b) {
  // One-level simplification rules.
  if (a == b) return a;
  if (a == !b) return kFalse;
  if (a.isTrue()) return b;
  if (b.isTrue()) return a;
  if (a.isFalse() || b.isFalse()) return kFalse;

  if (b.raw() < a.raw()) std::swap(a, b);
  if (const NodeId hit = strash_.find(a, b); hit != 0)
    return Lit(hit, false);

  const std::uint32_t lvl =
      1 + std::max(nodes_[a.node()].level, nodes_[b.node()].level);
  const NodeId id = newNode(a, b, lvl);
  strash_.insert(a, b, id);
  return Lit(id, false);
}

bool Aig::tryTwoLevel(Lit a, Lit b, Lit& out) {
  // Rules that look one AND level below `a`; callers invoke this with both
  // argument orders. All rules preserve the function exactly.
  if (!isAnd(a.node())) return false;
  const Lit x = fanin0(a.node());
  const Lit y = fanin1(a.node());

  if (!a.negated()) {
    // a = x & y.
    if (b == x || b == y) {            // absorption: (x&y) & x = x&y
      out = a;
      return true;
    }
    if (b == !x || b == !y) {          // contradiction: (x&y) & !x = 0
      out = kFalse;
      return true;
    }
    if (isAnd(b.node()) && !b.negated()) {
      const Lit u = fanin0(b.node());
      const Lit v = fanin1(b.node());
      if (x == !u || x == !v || y == !u || y == !v) {  // (x&y)&(u&v), x=!u
        out = kFalse;
        return true;
      }
    }
    if (isAnd(b.node()) && b.negated()) {
      const Lit u = fanin0(b.node());
      const Lit v = fanin1(b.node());
      // a → !u (or !v) implies a → b, so a & b = a.
      if (x == !u || x == !v || y == !u || y == !v) {
        out = a;
        return true;
      }
    }
  } else {
    // a = !(x & y).
    if (b == !x || b == !y) {          // !x → !(x&y), so b & a = b
      out = b;
      return true;
    }
    if (b == x) {                      // substitution: x & !(x&y) = x & !y
      out = mkAnd(x, !y);
      return true;
    }
    if (b == y) {
      out = mkAnd(y, !x);
      return true;
    }
  }
  return false;
}

Lit Aig::mkAnd(Lit a, Lit b) {
  if (a == b) return a;
  if (a == !b) return kFalse;
  if (a.isTrue()) return b;
  if (b.isTrue()) return a;
  if (a.isFalse() || b.isFalse()) return kFalse;

  if (twoLevel_) {
    Lit out;
    if (tryTwoLevel(a, b, out)) return out;
    if (tryTwoLevel(b, a, out)) return out;
  }
  return mkAndRaw(a, b);
}

Lit Aig::mkXor(Lit a, Lit b) {
  return mkOr(mkAnd(a, !b), mkAnd(!a, b));
}

Lit Aig::mkMux(Lit s, Lit t, Lit e) {
  if (t == e) return t;
  return mkOr(mkAnd(s, t), mkAnd(!s, e));
}

Lit Aig::mkAndAll(std::span<const Lit> lits) {
  if (lits.empty()) return kTrue;
  std::vector<Lit> layer(lits.begin(), lits.end());
  // Balanced reduction keeps levels (and sharing opportunities) sane.
  while (layer.size() > 1) {
    std::vector<Lit> next;
    next.reserve((layer.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(mkAnd(layer[i], layer[i + 1]));
    if (layer.size() % 2 != 0) next.push_back(layer.back());
    layer = std::move(next);
  }
  return layer.front();
}

Lit Aig::mkOrAll(std::span<const Lit> lits) {
  std::vector<Lit> inv;
  inv.reserve(lits.size());
  for (Lit l : lits) inv.push_back(!l);
  return !mkAndAll(inv);
}

void Aig::bumpEpoch() const {
  stamp_.resize(nodes_.size(), 0);
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }
}

std::vector<NodeId> Aig::coneAnds(std::span<const Lit> roots) const {
  bumpEpoch();
  std::vector<NodeId> order;
  std::vector<std::pair<NodeId, bool>> stack;  // (node, children done)
  for (Lit r : roots) stack.emplace_back(r.node(), false);
  while (!stack.empty()) {
    auto [n, done] = stack.back();
    stack.pop_back();
    if (done) {
      order.push_back(n);
      continue;
    }
    if (visited(n) || !isAnd(n)) {
      if (!visited(n)) markVisited(n);
      continue;
    }
    markVisited(n);
    stack.emplace_back(n, true);
    stack.emplace_back(fanin0(n).node(), false);
    stack.emplace_back(fanin1(n).node(), false);
  }
  return order;
}

std::size_t Aig::coneSize(Lit root) const {
  const Lit roots[] = {root};
  return coneAnds(roots).size();
}

std::size_t Aig::coneSize(std::span<const Lit> roots) const {
  return coneAnds(roots).size();
}

std::vector<VarId> Aig::supportVars(std::span<const Lit> roots) const {
  bumpEpoch();
  std::vector<VarId> vars;
  std::vector<NodeId> stack;
  for (Lit r : roots) stack.push_back(r.node());
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (visited(n)) continue;
    markVisited(n);
    if (isPi(n)) {
      vars.push_back(piVar(n));
    } else if (isAnd(n)) {
      stack.push_back(fanin0(n).node());
      stack.push_back(fanin1(n).node());
    }
  }
  std::sort(vars.begin(), vars.end());
  return vars;
}

std::vector<VarId> Aig::supportVars(Lit root) const {
  const Lit roots[] = {root};
  return supportVars(roots);
}

std::vector<VarId> Aig::supportVars(std::span<const Lit> roots,
                                    TraversalScratch& scratch) const {
  scratch.stamp.resize(nodes_.size(), 0);
  if (++scratch.epoch == 0) {
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0u);
    scratch.epoch = 1;
  }
  std::vector<VarId> vars;
  std::vector<NodeId> stack;
  for (Lit r : roots) stack.push_back(r.node());
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (scratch.stamp[n] == scratch.epoch) continue;
    scratch.stamp[n] = scratch.epoch;
    if (isPi(n)) {
      vars.push_back(piVar(n));
    } else if (isAnd(n)) {
      stack.push_back(fanin0(n).node());
      stack.push_back(fanin1(n).node());
    }
  }
  std::sort(vars.begin(), vars.end());
  return vars;
}

bool Aig::dependsOn(Lit root, VarId var) const {
  bumpEpoch();
  std::vector<NodeId> stack{root.node()};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (visited(n)) continue;
    markVisited(n);
    if (isPi(n)) {
      if (piVar(n) == var) return true;
    } else if (isAnd(n)) {
      stack.push_back(fanin0(n).node());
      stack.push_back(fanin1(n).node());
    }
  }
  return false;
}

template <typename LeafFn>
std::vector<Lit> Aig::rebuild(std::span<const Lit> roots, LeafFn&& leaf,
                              const NodeMap* nodeMap) {
  // All memo keys are node ids that exist on entry; mkAnd growing nodes_
  // during the walk never needs a memo slot for the new nodes.
  memo_.reset(nodes_.size());

  enum class Action : std::uint8_t { Visit, Combine, Alias };
  struct Frame {
    NodeId node;
    Action action;
    Lit aliasLit;  // for Alias: the literal this node was mapped to
  };
  std::vector<Frame> stack;

  auto resultOf = [&](Lit l) { return memo_.at(l.node()) ^ l.negated(); };

  for (Lit root : roots) stack.push_back({root.node(), Action::Visit, kFalse});
  while (!stack.empty()) {
    Frame fr = stack.back();
    stack.pop_back();
    const NodeId n = fr.node;
    switch (fr.action) {
      case Action::Visit: {
        if (memo_.contains(n)) break;
        if (nodeMap != nullptr && nodeMap->contains(n)) {
          // Replacement chains are chased through the map; callers must
          // supply acyclic maps (merge maps always point "backwards").
          const Lit alias = nodeMap->at(n);
          stack.push_back({n, Action::Alias, alias});
          stack.push_back({alias.node(), Action::Visit, kFalse});
          break;
        }
        if (isConst(n)) {
          memo_.put(n, kFalse);
        } else if (isPi(n)) {
          memo_.put(n, leaf(piVar(n)));
        } else {
          // Copy fanins now: mkAnd during Combine may grow nodes_.
          const Lit f0 = fanin0(n);
          const Lit f1 = fanin1(n);
          stack.push_back({n, Action::Combine, kFalse});
          stack.push_back({f0.node(), Action::Visit, kFalse});
          stack.push_back({f1.node(), Action::Visit, kFalse});
        }
        break;
      }
      case Action::Combine: {
        const Lit f0 = fanin0(n);
        const Lit f1 = fanin1(n);
        memo_.put(n, mkAnd(resultOf(f0), resultOf(f1)));
        break;
      }
      case Action::Alias: {
        memo_.put(n, resultOf(fr.aliasLit));
        break;
      }
    }
  }

  std::vector<Lit> out;
  out.reserve(roots.size());
  for (Lit root : roots) out.push_back(resultOf(root));
  return out;
}

Lit Aig::cofactor(Lit f, VarId var, bool value) {
  const Lit roots[] = {f};
  auto res = rebuild(
      roots,
      [&](VarId v) { return v == var ? (value ? kTrue : kFalse) : pi(v); },
      nullptr);
  return res.front();
}

Lit Aig::compose(Lit f, std::span<const VarSub> map) {
  substScratch_.clear();
  for (const auto& [v, l] : map) substScratch_.set(v, l);
  const Lit roots[] = {f};
  auto res = rebuild(
      roots,
      [&](VarId v) {
        return substScratch_.contains(v) ? substScratch_.at(v) : pi(v);
      },
      nullptr);
  return res.front();
}

std::vector<Lit> Aig::rebuildWithNodeMap(std::span<const Lit> roots,
                                         const NodeMap& nodeMap) {
  return rebuild(roots, [&](VarId v) { return pi(v); }, &nodeMap);
}

std::vector<std::uint64_t> Aig::simulate(
    std::span<const Lit> roots,
    const util::VarTable<std::uint64_t>& piWords) const {
  const auto order = coneAnds(roots);
  simVal_.assign(nodes_.size(), 0);
  // PI values: only PIs inside the cones matter, but filling all registered
  // PIs is simpler and still linear.
  for (const NodeId p : pis_) simVal_[p] = piWords.get(piVar(p), 0);
  for (const NodeId n : order) {
    const Lit f0 = fanin0(n);
    const Lit f1 = fanin1(n);
    simVal_[n] = (simVal_[f0.node()] ^ negMask(f0.negated())) &
                 (simVal_[f1.node()] ^ negMask(f1.negated()));
  }
  std::vector<std::uint64_t> out;
  out.reserve(roots.size());
  for (Lit r : roots)
    out.push_back(simVal_[r.node()] ^ negMask(r.negated()));
  return out;
}

bool Aig::evaluate(Lit root,
                   const std::unordered_map<VarId, bool>& assignment) const {
  util::VarTable<std::uint64_t> words;
  for (const auto& [v, b] : assignment) words.set(v, negMask(b));
  const Lit roots[] = {root};
  return (simulate(roots, words).front() & 1u) != 0;
}

bool Aig::evaluate(Lit root, const std::vector<bool>& assignment) const {
  util::VarTable<std::uint64_t> words;
  // Unmapped PIs simulate as zero, so only true variables need slots.
  for (std::size_t v = 0; v < assignment.size(); ++v)
    if (assignment[v]) words.set(static_cast<VarId>(v), negMask(true));
  const Lit roots[] = {root};
  return (simulate(roots, words).front() & 1u) != 0;
}

std::vector<Lit> Aig::transferFrom(const Aig& src,
                                   std::span<const Lit> roots) {
  return transferFromImpl(src, roots, nullptr);
}

std::vector<Lit> Aig::transferFrom(
    const Aig& src, std::span<const Lit> roots,
    std::vector<std::pair<NodeId, Lit>>& outMap) {
  outMap.clear();
  return transferFromImpl(src, roots, &outMap);
}

std::vector<Lit> Aig::transferFromImpl(
    const Aig& src, std::span<const Lit> roots,
    std::vector<std::pair<NodeId, Lit>>* outMap) {
  if (&src == this) return {roots.begin(), roots.end()};
  memo_.reset(src.nodes_.size());  // keyed by src node ids

  struct Frame {
    NodeId node;
    bool expand;
  };
  std::vector<Frame> stack;
  auto resultOf = [&](Lit l) { return memo_.at(l.node()) ^ l.negated(); };

  for (Lit root : roots) stack.push_back({root.node(), false});
  while (!stack.empty()) {
    auto [n, expand] = stack.back();
    stack.pop_back();
    if (expand) {
      const Lit l = mkAnd(resultOf(src.fanin0(n)), resultOf(src.fanin1(n)));
      memo_.put(n, l);
      if (outMap != nullptr) outMap->emplace_back(n, l);
      continue;
    }
    if (memo_.contains(n)) continue;
    if (src.isConst(n)) {
      memo_.put(n, kFalse);
      if (outMap != nullptr) outMap->emplace_back(n, kFalse);
    } else if (src.isPi(n)) {
      const Lit l = pi(src.piVar(n));
      memo_.put(n, l);
      if (outMap != nullptr) outMap->emplace_back(n, l);
    } else {
      stack.push_back({n, true});
      stack.push_back({src.fanin0(n).node(), false});
      stack.push_back({src.fanin1(n).node(), false});
    }
  }

  std::vector<Lit> out;
  out.reserve(roots.size());
  for (Lit root : roots) out.push_back(resultOf(root));
  return out;
}

}  // namespace cbq::aig
