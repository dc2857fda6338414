#include "sat/circuit_solver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "obs/tracer.hpp"
#include "util/fault.hpp"

namespace cbq::sat {

namespace {
/// Sentinel for "no literal" returned by pickJustification().
constexpr std::uint32_t kNoPick = 0xffffffffu;
}  // namespace

CircuitSolver::CircuitSolver(const aig::Aig& aig) : aig_(&aig) { sync(); }

// ----- manager sync --------------------------------------------------------

void CircuitSolver::sync() {
  const auto total = static_cast<NodeId>(aig_->numNodes());
  if (syncedNodes_ == total) return;
  head_.resize(total, kNoEdge);
  nextEdge_.resize(2 * static_cast<std::size_t>(total), kNoEdge);
  assigns_.resize(total, LBool::Undef);
  polarity_.resize(total, 1);  // default phase: false (MiniSat default)
  levels_.resize(total, 0);
  reasons_.resize(total);
  activity_.resize(total, 0.0);
  focusStamp_.resize(total, 0);  // stamp 0 never equals a live epoch
  heapIndex_.resize(total, -1);
  seen_.resize(total, 0);
  watches_.resize(2 * static_cast<std::size_t>(total));
  modelStamp_.resize(total, 0);
  modelVal_.resize(total, 0);
  // New nodes lie outside any current focus, so a focused solver leaves
  // them unlinked.
  if (!focused_) {
    for (NodeId n = syncedNodes_; n < total; ++n)
      if (aig_->isAnd(n)) linkFanout(n);
  }
  const bool firstSync = (syncedNodes_ == 0);
  syncedNodes_ = total;
  // Node 0 is the constant-FALSE node: pin it at level 0 once. Strashing
  // folds constant fanins, so no AND ever watches it.
  if (firstSync && total > 0) uncheckedEnqueue(aig::kTrue, Reason{});
}

void CircuitSolver::linkFanout(NodeId m) {
  const std::uint32_t e0 = 2 * m;
  const std::uint32_t e1 = 2 * m + 1;
  const NodeId s0 = aig_->fanin0(m).node();
  nextEdge_[e0] = head_[s0];
  head_[s0] = e0;
  const NodeId s1 = aig_->fanin1(m).node();
  nextEdge_[e1] = head_[s1];
  head_[s1] = e1;
}

// ----- learnt-gate arena ---------------------------------------------------

float CircuitSolver::gateActivity(GateRef g) const {
  return std::bit_cast<float>(arena_[g + 1]);
}

void CircuitSolver::setGateActivity(GateRef g, float a) {
  arena_[g + 1] = std::bit_cast<std::uint32_t>(a);
}

CircuitSolver::GateRef CircuitSolver::allocGate(
    std::span<const aig::Lit> lits, bool learnt) {
  const auto g = static_cast<GateRef>(arena_.size());
  arena_.push_back((static_cast<std::uint32_t>(lits.size()) << 1) |
                   static_cast<std::uint32_t>(learnt));
  arena_.push_back(std::bit_cast<std::uint32_t>(0.0f));
  for (const aig::Lit l : lits) arena_.push_back(l.raw());
  return g;
}

void CircuitSolver::attachGate(GateRef g) {
  const aig::Lit l0 = gateLit(g, 0);
  const aig::Lit l1 = gateLit(g, 1);
  watches_[(!l0).raw()].push_back({g, l1});
  watches_[(!l1).raw()].push_back({g, l0});
}

void CircuitSolver::detachGate(GateRef g) {
  auto erase = [&](aig::Lit watched) {
    auto& ws = watches_[(!watched).raw()];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].gref == g) {
        ws[i] = ws.back();
        ws.pop_back();
        return;
      }
    }
  };
  erase(gateLit(g, 0));
  erase(gateLit(g, 1));
}

bool CircuitSolver::gateLocked(GateRef g) const {
  const aig::Lit l0 = gateLit(g, 0);
  return value(l0) == LBool::True && reasons_[l0.node()].ref == g;
}

// ----- justification frontier (max-heap on activity) -----------------------

void CircuitSolver::heapUp(int i) {
  const NodeId v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) >> 1;
    const NodeId pv = heap_[static_cast<std::size_t>(parent)];
    if (activity_[v] <= activity_[pv]) break;
    heap_[static_cast<std::size_t>(i)] = pv;
    heapIndex_[pv] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heapIndex_[v] = i;
}

void CircuitSolver::heapDown(int i) {
  const NodeId v = heap_[static_cast<std::size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[heap_[static_cast<std::size_t>(child + 1)]] >
            activity_[heap_[static_cast<std::size_t>(child)]])
      ++child;
    const NodeId cv = heap_[static_cast<std::size_t>(child)];
    if (activity_[cv] <= activity_[v]) break;
    heap_[static_cast<std::size_t>(i)] = cv;
    heapIndex_[cv] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heapIndex_[v] = i;
}

void CircuitSolver::frontierInsert(NodeId n) {
  if (inFrontier(n)) return;
  heap_.push_back(n);
  heapIndex_[n] = static_cast<int>(heap_.size()) - 1;
  heapUp(static_cast<int>(heap_.size()) - 1);
}

void CircuitSolver::frontierDecrease(NodeId n) {
  if (inFrontier(n)) heapUp(heapIndex_[n]);
}

CircuitSolver::NodeId CircuitSolver::frontierPop() {
  const NodeId top = heap_.front();
  heapIndex_[top] = -1;
  const NodeId last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_.front() = last;
    heapIndex_[last] = 0;
    heapDown(0);
  }
  return top;
}

void CircuitSolver::frontierClear() {
  for (const NodeId n : heap_) heapIndex_[n] = -1;
  heap_.clear();
}

// ----- activities ----------------------------------------------------------

void CircuitSolver::varBumpActivity(NodeId n) {
  auto& act = activity_[n];
  act += varInc_;
  if (act > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    varInc_ *= 1e-100;
  }
  frontierDecrease(n);
}

void CircuitSolver::claBumpActivity(GateRef g) {
  const float a = gateActivity(g) + claInc_;
  setGateActivity(g, a);
  if (a > 1e20f) {
    for (const GateRef lg : learnts_)
      setGateActivity(lg, gateActivity(lg) * 1e-20f);
    claInc_ *= 1e-20f;
  }
}

// ----- assignment ----------------------------------------------------------

void CircuitSolver::uncheckedEnqueue(aig::Lit p, Reason from) {
  const NodeId n = p.node();
  assigns_[n] = lbool(!p.negated());
  levels_[n] = decisionLevel();
  reasons_[n] = from;
  trail_.push_back(p);
}

void CircuitSolver::cancelUntil(int level) {
  if (decisionLevel() <= level) return;
  const int bound = trailLim_[static_cast<std::size_t>(level)];
  for (int c = static_cast<int>(trail_.size()) - 1; c >= bound; --c) {
    const aig::Lit p = trail_[static_cast<std::size_t>(c)];
    const NodeId n = p.node();
    assigns_[n] = LBool::Undef;
    polarity_[n] = static_cast<std::uint8_t>(p.negated());  // phase saving
    // Unassigning n may strip a parent gate of its only justification:
    // re-arm the frontier for parents that stay assigned false. Stale
    // entries are harmless (validity is re-checked at pop).
    for (std::uint32_t e = fanoutHead(n); e != kNoEdge; e = nextEdge_[e]) {
      const NodeId m = e >> 1;
      if (nodeValue(m) == LBool::False && !justified(m)) frontierInsert(m);
    }
  }
  qhead_ = bound;
  trail_.resize(static_cast<std::size_t>(bound));
  trailLim_.resize(static_cast<std::size_t>(level));
}

// ----- clause addition -----------------------------------------------------

bool CircuitSolver::addClause(std::span<const aig::Lit> lits) {
  assert(decisionLevel() == 0);
  sync();
  if (!ok_) return false;

  std::vector<aig::Lit> ps(lits.begin(), lits.end());
  std::sort(ps.begin(), ps.end());
  std::size_t j = 0;
  aig::Lit prev = aig::Lit::fromRaw(kNoLitRaw);
  for (const aig::Lit l : ps) {
    if (value(l) == LBool::True || l == !prev) return true;  // satisfied/taut
    if (value(l) == LBool::False || l == prev) continue;     // drop
    ps[j++] = l;
    prev = l;
  }
  ps.resize(j);

  if (ps.empty()) {
    ok_ = false;
    return false;
  }
  if (ps.size() == 1) {
    uncheckedEnqueue(ps[0], Reason{});
    ok_ = propagate();
    return ok_;
  }
  const GateRef g = allocGate(ps, /*learnt=*/false);
  permanents_.push_back(g);
  attachGate(g);
  return true;
}

// ----- propagation ---------------------------------------------------------

bool CircuitSolver::enqueueImplied(aig::Lit p, Reason from) {
  const LBool v = value(p);
  if (v == LBool::True) return true;
  if (v == LBool::False) {
    // Conflict clause = implied literal + reason tail, every literal
    // false under the current assignment.
    conflictGate_ = kNoRef;
    conflictLits_.clear();
    conflictLits_.push_back(p);
    if (from.a != kNoLitRaw) conflictLits_.push_back(aig::Lit::fromRaw(from.a));
    if (from.b != kNoLitRaw) conflictLits_.push_back(aig::Lit::fromRaw(from.b));
    return false;
  }
  uncheckedEnqueue(p, from);
  return true;
}

bool CircuitSolver::propagateGate(aig::Lit p) {
  const NodeId n = p.node();
  // Structural rules are enforced only inside the focus: out-of-focus
  // gates are the circuit analog of never-encoded CNF cones, and
  // propagating into them would evaluate the whole shared manager on
  // every query. Sound both ways: the query cone is entirely in focus,
  // so Unsat only uses enforced (valid) constraints and a Sat model
  // determines the roots through fully-enforced structure.
  if (aig_->isAnd(n) && inFocus(n)) {
    const aig::Lit f0 = aig_->fanin0(n);
    const aig::Lit f1 = aig_->fanin1(n);
    if (!p.negated()) {
      // n true → both fanins true; implication (¬n ∨ fi).
      const Reason r{(!aig::Lit(n, false)).raw(), kNoLitRaw, kNoRef};
      if (!enqueueImplied(f0, r)) return false;
      if (!enqueueImplied(f1, r)) return false;
    } else {
      const LBool v0 = value(f0);
      const LBool v1 = value(f1);
      if (v0 == LBool::True) {
        // One fanin true: the other must fall — (n ∨ ¬f0 ∨ ¬f1). A true
        // second fanin conflicts inside enqueueImplied.
        if (v1 != LBool::False &&
            !enqueueImplied(!f1,
                            Reason{aig::Lit(n, false).raw(), (!f0).raw(),
                                   kNoRef}))
          return false;
      } else if (v1 == LBool::True) {
        if (v0 != LBool::False &&
            !enqueueImplied(!f0,
                            Reason{aig::Lit(n, false).raw(), (!f1).raw(),
                                   kNoRef}))
          return false;
      } else if (v0 == LBool::Undef && v1 == LBool::Undef) {
        // No false fanin yet: the gate joins the justification frontier.
        frontierInsert(n);
      }
      // Some fanin already false: justified.
    }
  }
  // Parent rules via the fanout edges of n (in-focus parents only).
  for (std::uint32_t e = fanoutHead(n); e != kNoEdge; e = nextEdge_[e]) {
    const NodeId m = e >> 1;
    const aig::Lit fl = (e & 1) != 0 ? aig_->fanin1(m) : aig_->fanin0(m);
    if (value(fl) == LBool::False) {
      // A false fanin forces the AND false — (¬m ∨ fl).
      if (!enqueueImplied(aig::Lit(m, true),
                          Reason{fl.raw(), kNoLitRaw, kNoRef}))
        return false;
    } else {
      const aig::Lit ol = (e & 1) != 0 ? aig_->fanin0(m) : aig_->fanin1(m);
      const LBool vm = nodeValue(m);
      const LBool vo = value(ol);
      if (vm == LBool::False) {
        // False AND, one fanin now true: other fanin falls or conflicts
        // — (m ∨ ¬f0 ∨ ¬f1).
        if (vo != LBool::False &&
            !enqueueImplied(!ol, Reason{aig::Lit(m, false).raw(), (!fl).raw(),
                                        kNoRef}))
          return false;
      } else if (vm == LBool::Undef && vo == LBool::True) {
        // Both fanins true → AND true — (¬f0 ∨ ¬f1 ∨ m).
        if (!enqueueImplied(aig::Lit(m, false),
                            Reason{(!fl).raw(), (!ol).raw(), kNoRef}))
          return false;
      }
      // vm == True: fanins were forced true when m was assigned.
    }
  }
  return true;
}

bool CircuitSolver::propagateWatches(aig::Lit p) {
  auto& ws = watches_[p.raw()];
  std::size_t i = 0;
  std::size_t j = 0;
  const aig::Lit falseLit = !p;
  bool okHere = true;
  while (i < ws.size()) {
    const Watcher w = ws[i];
    if (value(w.blocker) == LBool::True) {  // constraint already satisfied
      ws[j++] = ws[i++];
      continue;
    }
    const GateRef g = w.gref;
    if (gateLit(g, 0) == falseLit) {
      setGateLit(g, 0, gateLit(g, 1));
      setGateLit(g, 1, falseLit);
    }
    ++i;
    const aig::Lit first = gateLit(g, 0);
    const Watcher ww{g, first};
    if (first != w.blocker && value(first) == LBool::True) {
      ws[j++] = ww;
      continue;
    }
    // Look for a new input to watch.
    const std::uint32_t size = gateSize(g);
    bool moved = false;
    for (std::uint32_t k = 2; k < size; ++k) {
      const aig::Lit lk = gateLit(g, k);
      if (value(lk) != LBool::False) {
        setGateLit(g, 1, lk);
        setGateLit(g, k, falseLit);
        watches_[(!lk).raw()].push_back(ww);
        moved = true;
        break;
      }
    }
    if (moved) continue;
    // Unit or conflicting under the current assignment.
    ws[j++] = ww;
    if (value(first) == LBool::False) {
      conflictGate_ = g;
      conflictLits_.clear();
      okHere = false;
      qhead_ = static_cast<int>(trail_.size());
      while (i < ws.size()) ws[j++] = ws[i++];
    } else {
      uncheckedEnqueue(first, Reason{kNoLitRaw, kNoLitRaw, g});
    }
  }
  ws.resize(j);
  return okHere;
}

bool CircuitSolver::propagate() {
  while (qhead_ < static_cast<int>(trail_.size())) {
    const aig::Lit p = trail_[static_cast<std::size_t>(qhead_++)];
    ++propagations_;
    if (!propagateGate(p)) return false;
    if (!propagateWatches(p)) return false;
  }
  return true;
}

// ----- conflict analysis ---------------------------------------------------

bool CircuitSolver::litRedundant(aig::Lit p) {
  const Reason r = reasons_[p.node()];
  if (r.isNone()) return false;
  auto blocksRemoval = [&](aig::Lit q) {
    const NodeId v = q.node();
    return seen_[v] == 0 && levels_[v] > 0;
  };
  if (r.ref != kNoRef) {
    const std::uint32_t size = gateSize(r.ref);
    for (std::uint32_t k = 1; k < size; ++k)
      if (blocksRemoval(gateLit(r.ref, k))) return false;
  } else {
    if (blocksRemoval(aig::Lit::fromRaw(r.a))) return false;
    if (r.b != kNoLitRaw && blocksRemoval(aig::Lit::fromRaw(r.b)))
      return false;
  }
  return true;
}

void CircuitSolver::analyze(std::vector<aig::Lit>& outLearnt,
                            int& outBtLevel) {
  int pathC = 0;
  aig::Lit p = aig::Lit::fromRaw(kNoLitRaw);
  outLearnt.clear();
  outLearnt.push_back(aig::kFalse);  // placeholder for asserting literal
  int index = static_cast<int>(trail_.size()) - 1;

  auto visit = [&](aig::Lit q) {
    const NodeId v = q.node();
    if (seen_[v] == 0 && levels_[v] > 0) {
      varBumpActivity(v);
      seen_[v] = 1;
      if (levels_[v] >= decisionLevel())
        ++pathC;
      else
        outLearnt.push_back(q);
    }
  };

  // Seed with the conflicting constraint (clause view, all lits false).
  if (conflictGate_ != kNoRef) {
    if (gateLearnt(conflictGate_)) claBumpActivity(conflictGate_);
    const std::uint32_t size = gateSize(conflictGate_);
    for (std::uint32_t k = 0; k < size; ++k) visit(gateLit(conflictGate_, k));
  } else {
    for (const aig::Lit q : conflictLits_) visit(q);
  }

  for (;;) {
    while (seen_[trail_[static_cast<std::size_t>(index)].node()] == 0)
      --index;
    p = trail_[static_cast<std::size_t>(index)];
    --index;
    const Reason r = reasons_[p.node()];
    seen_[p.node()] = 0;
    --pathC;
    if (pathC <= 0) break;
    // Expand p's reason, skipping the implied literal.
    if (r.ref != kNoRef) {
      if (gateLearnt(r.ref)) claBumpActivity(r.ref);
      const std::uint32_t size = gateSize(r.ref);
      for (std::uint32_t k = 1; k < size; ++k) visit(gateLit(r.ref, k));
    } else {
      if (r.a != kNoLitRaw) visit(aig::Lit::fromRaw(r.a));
      if (r.b != kNoLitRaw) visit(aig::Lit::fromRaw(r.b));
    }
  }
  outLearnt[0] = !p;

  // Clause minimization (keep a copy to reset `seen_` afterwards).
  analyzeToClear_.assign(outLearnt.begin() + 1, outLearnt.end());
  for (const aig::Lit l : analyzeToClear_) seen_[l.node()] = 1;
  std::size_t j = 1;
  for (std::size_t i = 1; i < outLearnt.size(); ++i) {
    if (!litRedundant(outLearnt[i])) outLearnt[j++] = outLearnt[i];
  }
  outLearnt.resize(j);
  for (const aig::Lit l : analyzeToClear_) seen_[l.node()] = 0;

  if (outLearnt.size() == 1) {
    outBtLevel = 0;
  } else {
    std::size_t maxIdx = 1;
    for (std::size_t i = 2; i < outLearnt.size(); ++i) {
      if (levels_[outLearnt[i].node()] > levels_[outLearnt[maxIdx].node()])
        maxIdx = i;
    }
    std::swap(outLearnt[1], outLearnt[maxIdx]);
    outBtLevel = levels_[outLearnt[1].node()];
  }
}

void CircuitSolver::analyzeFinal(aig::Lit p, std::vector<aig::Lit>& outCore) {
  outCore.clear();
  outCore.push_back(p);
  if (decisionLevel() == 0) return;

  seen_[p.node()] = 1;
  for (int i = static_cast<int>(trail_.size()) - 1; i >= trailLim_[0]; --i) {
    const aig::Lit t = trail_[static_cast<std::size_t>(i)];
    const NodeId x = t.node();
    if (seen_[x] == 0) continue;
    const Reason r = reasons_[x];
    if (r.isNone()) {
      if (levels_[x] > 0) outCore.push_back(!t);
    } else if (r.ref != kNoRef) {
      const std::uint32_t size = gateSize(r.ref);
      for (std::uint32_t k = 1; k < size; ++k) {
        const NodeId v = gateLit(r.ref, k).node();
        if (levels_[v] > 0) seen_[v] = 1;
      }
    } else {
      const NodeId a = aig::Lit::fromRaw(r.a).node();
      if (levels_[a] > 0) seen_[a] = 1;
      if (r.b != kNoLitRaw) {
        const NodeId b = aig::Lit::fromRaw(r.b).node();
        if (levels_[b] > 0) seen_[b] = 1;
      }
    }
    seen_[x] = 0;
  }
  seen_[p.node()] = 0;
}

// ----- branching = justification -------------------------------------------

aig::Lit CircuitSolver::pickJustification() {
  while (!frontierEmpty()) {
    const NodeId m = frontierPop();
    // Lazy validity: the entry may be stale (gate unassigned, re-proven
    // true, out of the current focus, or justified meanwhile).
    if (nodeValue(m) != LBool::False || !inFocus(m)) continue;
    const aig::Lit f0 = aig_->fanin0(m);
    const aig::Lit f1 = aig_->fanin1(m);
    const LBool v0 = value(f0);
    const LBool v1 = value(f1);
    if (v0 == LBool::False || v1 == LBool::False) continue;  // justified
    // At propagation fixpoint a false gate with a true fanin has a false
    // other fanin, so both fanins are unassigned here; be robust anyway.
    const bool u0 = v0 == LBool::Undef;
    const bool u1 = v1 == LBool::Undef;
    if (!u0 && !u1) continue;
    aig::Lit pick;
    if (!u0) {
      pick = f1;
    } else if (!u1) {
      pick = f0;
    } else if (activity_[f0.node()] > activity_[f1.node()]) {
      pick = f0;
    } else if (activity_[f1.node()] > activity_[f0.node()]) {
      pick = f1;
    } else {
      // Activity tie: prefer the fanin whose saved phase already points
      // at "false" — re-falsifying it repeats the cheap direction.
      pick = polarity_[f0.node()] == static_cast<std::uint8_t>((!f0).negated())
                 ? f0
                 : f1;
    }
    return !pick;  // falsify the chosen fanin: justifies m on propagation
  }
  return aig::Lit::fromRaw(kNoPick);
}

// ----- focus ---------------------------------------------------------------

void CircuitSolver::focusOn(std::span<const aig::Lit> roots) {
  sync();
  focused_ = true;
  if (++focusEpoch_ == 0) {  // wrapped: stale stamps could alias epoch 0
    std::fill(focusStamp_.begin(), focusStamp_.end(), 0);
    focusEpoch_ = 1;
  }
  // A node entering the focus starts with an empty fanout list; the walk
  // below links exactly the cone's ANDs into their fanins' lists.
  const auto enter = [&](NodeId n) {
    if (focusStamp_[n] == focusEpoch_) return;
    focusStamp_[n] = focusEpoch_;
    head_[n] = kNoEdge;
  };
  for (const aig::Lit r : roots) enter(r.node());
  frontierClear();
  // One cone walk stamps the focus, rebuilds the fanout lists and
  // rebuilds the justification frontier: any in-focus gate demanding
  // justification is in the cone, so the (unboundedly growing) trail
  // never needs scanning here.
  for (const NodeId n : aig_->coneAnds(roots)) {
    enter(n);
    enter(aig_->fanin0(n).node());
    enter(aig_->fanin1(n).node());
    linkFanout(n);
    if (nodeValue(n) == LBool::False && !justified(n)) frontierInsert(n);
  }
}

// ----- learnt DB reduction -------------------------------------------------

void CircuitSolver::reduceDB() {
  std::sort(learnts_.begin(), learnts_.end(), [&](GateRef a, GateRef b) {
    return gateActivity(a) < gateActivity(b);
  });
  const std::size_t limit = learnts_.size() / 2;
  const float extraLim =
      claInc_ / static_cast<float>(std::max<std::size_t>(learnts_.size(), 1));
  std::size_t j = 0;
  for (std::size_t i = 0; i < learnts_.size(); ++i) {
    const GateRef g = learnts_[i];
    if (gateSize(g) > 2 && !gateLocked(g) &&
        (i < limit || gateActivity(g) < extraLim)) {
      detachGate(g);  // arena slot abandoned, refs stay stable
    } else {
      learnts_[j++] = g;
    }
  }
  learnts_.resize(j);
}

// ----- search --------------------------------------------------------------

namespace {
double lubySeq(double y, int x) {
  int size = 1;
  int seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x %= size;
  }
  return std::pow(y, seq);
}
}  // namespace

Status CircuitSolver::search(std::int64_t conflictsAllowed) {
  std::int64_t conflictsHere = 0;
  std::uint32_t steps = 0;
  std::vector<aig::Lit> learnt;
  for (;;) {
    if (interrupt_ && (++steps & 255u) == 0 && interrupt_()) {
      cancelUntil(0);
      return Status::Undef;
    }
    if (!propagate()) {
      ++conflicts_;
      ++conflictsHere;
      if (decisionLevel() == 0) {
        ok_ = false;
        conflictCore_.clear();
        return Status::Unsat;
      }
      int btLevel = 0;
      analyze(learnt, btLevel);
      cancelUntil(btLevel);
      if (learnt.size() == 1) {
        uncheckedEnqueue(learnt[0], Reason{});
      } else {
        const GateRef g = allocGate(learnt, /*learnt=*/true);
        learnts_.push_back(g);
        attachGate(g);
        claBumpActivity(g);
        uncheckedEnqueue(learnt[0], Reason{kNoLitRaw, kNoLitRaw, g});
      }
      varDecayActivity();
      claDecayActivity();
    } else {
      if (conflictsHere >= conflictsAllowed) {
        cancelUntil(0);
        return Status::Undef;  // restart / budget checkpoint
      }
      if (static_cast<double>(learnts_.size()) -
              static_cast<double>(trail_.size()) >=
          maxLearnts_)
        reduceDB();

      aig::Lit next = aig::Lit::fromRaw(kNoPick);
      while (decisionLevel() < static_cast<int>(assumptions_.size())) {
        const aig::Lit p = assumptions_[static_cast<std::size_t>(
            decisionLevel())];
        if (value(p) == LBool::True) {
          newDecisionLevel();  // dummy level keeps indices aligned
        } else if (value(p) == LBool::False) {
          analyzeFinal(!p, conflictCore_);
          return Status::Unsat;
        } else {
          next = p;
          break;
        }
      }
      if (next.raw() == kNoPick) {
        ++decisions_;
        next = pickJustification();
        if (next.raw() == kNoPick) {
          // Propagation fixpoint, assumptions hold, frontier empty:
          // every assigned false gate is justified, every assigned true
          // gate has true fanins, so the assignment extends to a total
          // model (unassigned PIs default false). Recording the trail
          // costs O(assigned); everything off it reads as Undef.
          if (++modelEpoch_ == 0) {
            std::fill(modelStamp_.begin(), modelStamp_.end(), 0);
            modelEpoch_ = 1;
          }
          for (const aig::Lit p : trail_) {
            const NodeId v = p.node();
            modelStamp_[v] = modelEpoch_;
            modelVal_[v] = static_cast<std::uint8_t>(!p.negated());
          }
          return Status::Sat;
        }
      }
      newDecisionLevel();
      uncheckedEnqueue(next, Reason{});
    }
  }
}

Status CircuitSolver::solveLimited(std::span<const aig::Lit> assumptions,
                                   std::int64_t conflictBudget) {
  CBQ_OBS_SPAN("sat.circuit", "solve");
  // Same injection site as the CNF path: a flip here must surface as an
  // inconclusive answer, never a wrong one.
  CBQ_FAULT_POINT("sat.solve");
  if (CBQ_FAULT_FAIL("sat.solve")) return Status::Undef;
  sync();
  conflictCore_.clear();
  if (!ok_) return Status::Unsat;
  assumptions_.assign(assumptions.begin(), assumptions.end());

  maxLearnts_ =
      std::max(static_cast<double>(permanents_.size()) * 0.3, 1000.0);
  std::int64_t remaining = conflictBudget;
  int restarts = 0;
  Status st = Status::Undef;
  while (st == Status::Undef) {
    if (interrupt_ && interrupt_()) break;
    std::int64_t allowed =
        static_cast<std::int64_t>(lubySeq(2.0, restarts) * kRestartBase);
    if (conflictBudget >= 0) {
      if (remaining <= 0) break;
      allowed = std::min(allowed, remaining);
    }
    const std::uint64_t before = conflicts_;
    st = search(allowed);
    if (conflictBudget >= 0)
      remaining -= static_cast<std::int64_t>(conflicts_ - before);
    ++restarts;
  }
  cancelUntil(0);
  assumptions_.clear();
  return st;
}

bool CircuitSolver::modelOf(aig::VarId v) const {
  if (!aig_->hasPi(v)) return false;
  const NodeId n = aig_->piNodeOf(v);
  return modelValue(aig::Lit(n, false)) == LBool::True;
}

// ----- semantic checks -------------------------------------------------

namespace {

/// One assumption-only query mapped onto the Holds/Fails/Unknown scale
/// with Sat meaning `satVerdict`.
Verdict querySat(CircuitSolver& solver, std::span<const aig::Lit> assumptions,
                 std::int64_t budget, Verdict satVerdict,
                 Verdict unsatVerdict) {
  switch (solver.solveLimited(assumptions, budget)) {
    case Status::Sat:
      return satVerdict;
    case Status::Unsat:
      return unsatVerdict;
    case Status::Undef:
      break;
  }
  return Verdict::Unknown;
}

}  // namespace

Verdict checkEquiv(CircuitSolver& solver, aig::Lit a, aig::Lit b,
                   std::int64_t budget) {
  if (a == b) return Verdict::Holds;
  if (a == !b) return Verdict::Fails;
  {
    const aig::Lit assumptions[] = {a, !b};
    const Verdict v = querySat(solver, assumptions, budget, Verdict::Fails,
                               Verdict::Holds);
    if (v != Verdict::Holds) return v;
  }
  const aig::Lit assumptions[] = {!a, b};
  return querySat(solver, assumptions, budget, Verdict::Fails,
                  Verdict::Holds);
}

Verdict checkImplies(CircuitSolver& solver, aig::Lit a, aig::Lit b,
                     std::int64_t budget) {
  if (a == b || a.isFalse() || b.isTrue()) return Verdict::Holds;
  const aig::Lit assumptions[] = {a, !b};
  return querySat(solver, assumptions, budget, Verdict::Fails,
                  Verdict::Holds);
}

Verdict checkConstant(CircuitSolver& solver, aig::Lit a, bool value,
                      std::int64_t budget) {
  if (a.isConstant())
    return a.isTrue() == value ? Verdict::Holds : Verdict::Fails;
  const aig::Lit assumptions[] = {a ^ value};
  return querySat(solver, assumptions, budget, Verdict::Fails,
                  Verdict::Holds);
}

Verdict checkSat(CircuitSolver& solver, aig::Lit f, std::int64_t budget) {
  if (f.isTrue()) return Verdict::Holds;
  if (f.isFalse()) return Verdict::Fails;
  const aig::Lit assumptions[] = {f};
  return querySat(solver, assumptions, budget, Verdict::Holds,
                  Verdict::Fails);
}

Verdict checkEquivUnderCare(CircuitSolver& solver, aig::Lit notRef, aig::Lit a,
                            aig::Lit b, std::int64_t budget) {
  if (a == b) return Verdict::Holds;
  {
    const aig::Lit assumptions[] = {notRef, a, !b};
    const Verdict v = querySat(solver, assumptions, budget, Verdict::Fails,
                               Verdict::Holds);
    if (v != Verdict::Holds) return v;
  }
  const aig::Lit assumptions[] = {notRef, !a, b};
  return querySat(solver, assumptions, budget, Verdict::Fails,
                  Verdict::Holds);
}

}  // namespace cbq::sat
