#include "sat/solver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>

#include "obs/tracer.hpp"
#include "util/fault.hpp"

namespace cbq::sat {

Solver::Solver() = default;

// ----- clause arena ------------------------------------------------------

float Solver::clauseActivity(ClauseRef c) const {
  return std::bit_cast<float>(arena_[c + 1]);
}

void Solver::setClauseActivity(ClauseRef c, float a) {
  arena_[c + 1] = std::bit_cast<std::uint32_t>(a);
}

Solver::ClauseRef Solver::allocClause(std::span<const Lit> lits, bool learnt) {
  const auto cref = static_cast<ClauseRef>(arena_.size());
  arena_.push_back((static_cast<std::uint32_t>(lits.size()) << 1) |
                   static_cast<std::uint32_t>(learnt));
  arena_.push_back(std::bit_cast<std::uint32_t>(0.0f));
  for (Lit l : lits) arena_.push_back(static_cast<std::uint32_t>(l.index()));
  return cref;
}

void Solver::attachClause(ClauseRef c) {
  const Lit l0 = clauseLit(c, 0);
  const Lit l1 = clauseLit(c, 1);
  watches_[static_cast<std::size_t>((!l0).index())].push_back({c, l1});
  watches_[static_cast<std::size_t>((!l1).index())].push_back({c, l0});
}

void Solver::detachClause(ClauseRef c) {
  auto erase = [&](Lit watched) {
    auto& ws = watches_[static_cast<std::size_t>((!watched).index())];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == c) {
        ws[i] = ws.back();
        ws.pop_back();
        return;
      }
    }
  };
  erase(clauseLit(c, 0));
  erase(clauseLit(c, 1));
}

bool Solver::clauseLocked(ClauseRef c) const {
  const Lit l0 = clauseLit(c, 0);
  return value(l0) == LBool::True &&
         reasons_[static_cast<std::size_t>(l0.var())] == c;
}

void Solver::removeClause(ClauseRef c) {
  detachClause(c);
  // The arena slot is abandoned; at our problem sizes the waste is
  // negligible and skipping garbage collection keeps ClauseRefs stable.
}

// ----- variables -----------------------------------------------------------

Var Solver::newVar() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::Undef);
  polarity_.push_back(true);  // default phase: negative (MiniSat default)
  levels_.push_back(0);
  reasons_.push_back(kNoReason);
  activity_.push_back(0.0);
  seen_.push_back(false);
  heapIndex_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  model_.push_back(LBool::Undef);
  heapInsert(v);
  return v;
}

// ----- order heap (max-heap on activity) -----------------------------------

void Solver::heapUp(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) >> 1;
    const Var pv = heap_[static_cast<std::size_t>(parent)];
    if (activity_[static_cast<std::size_t>(v)] <=
        activity_[static_cast<std::size_t>(pv)])
      break;
    heap_[static_cast<std::size_t>(i)] = pv;
    heapIndex_[static_cast<std::size_t>(pv)] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heapIndex_[static_cast<std::size_t>(v)] = i;
}

void Solver::heapDown(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(
            child + 1)])] >
            activity_[static_cast<std::size_t>(
                heap_[static_cast<std::size_t>(child)])])
      ++child;
    const Var cv = heap_[static_cast<std::size_t>(child)];
    if (activity_[static_cast<std::size_t>(cv)] <=
        activity_[static_cast<std::size_t>(v)])
      break;
    heap_[static_cast<std::size_t>(i)] = cv;
    heapIndex_[static_cast<std::size_t>(cv)] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heapIndex_[static_cast<std::size_t>(v)] = i;
}

void Solver::heapInsert(Var v) {
  if (inHeap(v)) return;
  heap_.push_back(v);
  heapIndex_[static_cast<std::size_t>(v)] =
      static_cast<int>(heap_.size()) - 1;
  heapUp(static_cast<int>(heap_.size()) - 1);
}

void Solver::heapDecrease(Var v) {
  if (inHeap(v)) heapUp(heapIndex_[static_cast<std::size_t>(v)]);
}

Var Solver::heapPop() {
  const Var top = heap_.front();
  heapIndex_[static_cast<std::size_t>(top)] = -1;
  const Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_.front() = last;
    heapIndex_[static_cast<std::size_t>(last)] = 0;
    heapDown(0);
  }
  return top;
}

// ----- activities -----------------------------------------------------------

void Solver::varBumpActivity(Var v) {
  auto& act = activity_[static_cast<std::size_t>(v)];
  act += varInc_;
  if (act > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    varInc_ *= 1e-100;
  }
  heapDecrease(v);
}

void Solver::claBumpActivity(ClauseRef c) {
  const float a = clauseActivity(c) + claInc_;
  setClauseActivity(c, a);
  if (a > 1e20f) {
    for (const ClauseRef lc : learnts_)
      setClauseActivity(lc, clauseActivity(lc) * 1e-20f);
    claInc_ *= 1e-20f;
  }
}

// ----- assignment -----------------------------------------------------------

void Solver::uncheckedEnqueue(Lit p, ClauseRef from) {
  const auto v = static_cast<std::size_t>(p.var());
  assigns_[v] = lbool(!p.sign());
  levels_[v] = decisionLevel();
  reasons_[v] = from;
  trail_.push_back(p);
}

void Solver::cancelUntil(int level) {
  if (decisionLevel() <= level) return;
  const int bound = trailLim_[static_cast<std::size_t>(level)];
  for (int c = static_cast<int>(trail_.size()) - 1; c >= bound; --c) {
    const Lit p = trail_[static_cast<std::size_t>(c)];
    const auto v = static_cast<std::size_t>(p.var());
    assigns_[v] = LBool::Undef;
    polarity_[v] = p.sign();  // phase saving
    if (!inHeap(p.var())) heapInsert(p.var());
  }
  qhead_ = bound;
  trail_.resize(static_cast<std::size_t>(bound));
  trailLim_.resize(static_cast<std::size_t>(level));
}

// ----- clause addition -------------------------------------------------------

bool Solver::addClause(std::span<const Lit> lits) {
  assert(decisionLevel() == 0);
  if (!ok_) return false;

  std::vector<Lit> ps(lits.begin(), lits.end());
  std::sort(ps.begin(), ps.end());
  // Strip duplicates / false lits; detect tautologies and satisfied clauses.
  std::size_t j = 0;
  Lit prev = kUndefLit;
  for (const Lit l : ps) {
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
    uncheckedEnqueue(ps[0], kNoReason);
    ok_ = (propagate() == kNoReason);
    return ok_;
  }
  const ClauseRef c = allocClause(ps, /*learnt=*/false);
  clauses_.push_back(c);
  attachClause(c);
  return true;
}

// ----- propagation ------------------------------------------------------------

Solver::ClauseRef Solver::propagate() {
  ClauseRef confl = kNoReason;
  while (qhead_ < static_cast<int>(trail_.size())) {
    const Lit p = trail_[static_cast<std::size_t>(qhead_++)];
    ++propagations_;
    auto& ws = watches_[static_cast<std::size_t>(p.index())];
    std::size_t i = 0;
    std::size_t j = 0;
    const Lit falseLit = !p;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::True) {  // clause already satisfied
        ws[j++] = ws[i++];
        continue;
      }
      const ClauseRef c = w.cref;
      if (clauseLit(c, 0) == falseLit) {
        setClauseLit(c, 0, clauseLit(c, 1));
        setClauseLit(c, 1, falseLit);
      }
      ++i;
      const Lit first = clauseLit(c, 0);
      const Watcher ww{c, first};
      if (first != w.blocker && value(first) == LBool::True) {
        ws[j++] = ww;
        continue;
      }
      // Look for a new literal to watch.
      const std::uint32_t size = clauseSize(c);
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        const Lit lk = clauseLit(c, k);
        if (value(lk) != LBool::False) {
          setClauseLit(c, 1, lk);
          setClauseLit(c, k, falseLit);
          watches_[static_cast<std::size_t>((!lk).index())].push_back(ww);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting under the current assignment.
      ws[j++] = ww;
      if (value(first) == LBool::False) {
        confl = c;
        qhead_ = static_cast<int>(trail_.size());
        while (i < ws.size()) ws[j++] = ws[i++];
      } else {
        uncheckedEnqueue(first, c);
      }
    }
    ws.resize(j);
  }
  return confl;
}

// ----- conflict analysis --------------------------------------------------------

bool Solver::litRedundant(Lit p) {
  // Local minimization: p is redundant when every other literal of its
  // reason clause is already in the learnt clause (or at level 0).
  const ClauseRef r = reasons_[static_cast<std::size_t>(p.var())];
  if (r == kNoReason) return false;
  const std::uint32_t size = clauseSize(r);
  for (std::uint32_t k = 1; k < size; ++k) {
    const Lit q = clauseLit(r, k);
    const auto v = static_cast<std::size_t>(q.var());
    if (!seen_[v] && levels_[v] > 0) return false;
  }
  return true;
}

void Solver::analyze(ClauseRef confl, std::vector<Lit>& outLearnt,
                     int& outBtLevel) {
  int pathC = 0;
  Lit p = kUndefLit;
  outLearnt.clear();
  outLearnt.push_back(kUndefLit);  // placeholder for the asserting literal
  int index = static_cast<int>(trail_.size()) - 1;

  do {
    assert(confl != kNoReason);
    if (clauseLearnt(confl)) claBumpActivity(confl);
    const std::uint32_t size = clauseSize(confl);
    for (std::uint32_t k = (p == kUndefLit ? 0u : 1u); k < size; ++k) {
      const Lit q = clauseLit(confl, k);
      const auto v = static_cast<std::size_t>(q.var());
      if (!seen_[v] && levels_[v] > 0) {
        varBumpActivity(q.var());
        seen_[v] = true;
        if (levels_[v] >= decisionLevel())
          ++pathC;
        else
          outLearnt.push_back(q);
      }
    }
    while (!seen_[static_cast<std::size_t>(
        trail_[static_cast<std::size_t>(index)].var())])
      --index;
    p = trail_[static_cast<std::size_t>(index)];
    --index;
    confl = reasons_[static_cast<std::size_t>(p.var())];
    seen_[static_cast<std::size_t>(p.var())] = false;
    --pathC;
  } while (pathC > 0);
  outLearnt[0] = !p;

  // Clause minimization (keep a copy to reset `seen_` afterwards).
  analyzeToClear_.assign(outLearnt.begin() + 1, outLearnt.end());
  std::size_t j = 1;
  for (std::size_t i = 1; i < outLearnt.size(); ++i) {
    if (!litRedundant(outLearnt[i])) outLearnt[j++] = outLearnt[i];
  }
  outLearnt.resize(j);

  for (const Lit l : analyzeToClear_)
    seen_[static_cast<std::size_t>(l.var())] = false;

  if (outLearnt.size() == 1) {
    outBtLevel = 0;
  } else {
    std::size_t maxIdx = 1;
    for (std::size_t i = 2; i < outLearnt.size(); ++i) {
      if (levels_[static_cast<std::size_t>(outLearnt[i].var())] >
          levels_[static_cast<std::size_t>(outLearnt[maxIdx].var())])
        maxIdx = i;
    }
    std::swap(outLearnt[1], outLearnt[maxIdx]);
    outBtLevel = levels_[static_cast<std::size_t>(outLearnt[1].var())];
  }
}

void Solver::analyzeFinal(Lit p, std::vector<Lit>& outCore) {
  outCore.clear();
  outCore.push_back(p);
  if (decisionLevel() == 0) return;

  seen_[static_cast<std::size_t>(p.var())] = true;
  for (int i = static_cast<int>(trail_.size()) - 1;
       i >= trailLim_[0]; --i) {
    const Lit t = trail_[static_cast<std::size_t>(i)];
    const auto x = static_cast<std::size_t>(t.var());
    if (!seen_[x]) continue;
    const ClauseRef r = reasons_[x];
    if (r == kNoReason) {
      if (levels_[x] > 0) outCore.push_back(!t);
    } else {
      const std::uint32_t size = clauseSize(r);
      for (std::uint32_t k = 1; k < size; ++k) {
        const Lit q = clauseLit(r, k);
        const auto v = static_cast<std::size_t>(q.var());
        if (levels_[v] > 0) seen_[v] = true;
      }
    }
    seen_[x] = false;
  }
  seen_[static_cast<std::size_t>(p.var())] = false;
}

// ----- branching ----------------------------------------------------------------

Lit Solver::pickBranchLit() {
  while (!heapEmpty()) {
    const Var v = heapPop();
    if (value(v) == LBool::Undef)
      return Lit(v, polarity_[static_cast<std::size_t>(v)]);
  }
  return kUndefLit;
}

// ----- learned clause DB ----------------------------------------------------------

void Solver::reduceDB() {
  std::sort(learnts_.begin(), learnts_.end(),
            [&](ClauseRef a, ClauseRef b) {
              return clauseActivity(a) < clauseActivity(b);
            });
  const std::size_t limit = learnts_.size() / 2;
  const float extraLim =
      claInc_ / static_cast<float>(std::max<std::size_t>(learnts_.size(), 1));
  std::size_t j = 0;
  for (std::size_t i = 0; i < learnts_.size(); ++i) {
    const ClauseRef c = learnts_[i];
    if (clauseSize(c) > 2 && !clauseLocked(c) &&
        (i < limit || clauseActivity(c) < extraLim)) {
      removeClause(c);
    } else {
      learnts_[j++] = c;
    }
  }
  learnts_.resize(j);
}

// ----- search -----------------------------------------------------------------------

double Solver::luby(double y, int x) {
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

Status Solver::search(std::int64_t conflictsAllowed) {
  std::int64_t conflictsHere = 0;
  std::uint32_t steps = 0;
  std::vector<Lit> learnt;
  for (;;) {
    // Cooperative interrupt: one poll per 256 propagate/decide rounds keeps
    // the callback cost invisible while bounding cancellation latency.
    if (interrupt_ && (++steps & 255u) == 0 && interrupt_()) {
      cancelUntil(0);
      return Status::Undef;
    }
    const ClauseRef confl = propagate();
    if (confl != kNoReason) {
      ++conflicts_;
      ++conflictsHere;
      if (decisionLevel() == 0) {
        // Contradiction independent of assumptions.
        ok_ = false;
        conflictCore_.clear();
        return Status::Unsat;
      }
      int btLevel = 0;
      analyze(confl, learnt, btLevel);
      cancelUntil(btLevel);
      if (learnt.size() == 1) {
        uncheckedEnqueue(learnt[0], kNoReason);
      } else {
        const ClauseRef c = allocClause(learnt, /*learnt=*/true);
        learnts_.push_back(c);
        attachClause(c);
        claBumpActivity(c);
        uncheckedEnqueue(learnt[0], c);
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

      Lit next = kUndefLit;
      while (decisionLevel() < static_cast<int>(assumptions_.size())) {
        const Lit p = assumptions_[static_cast<std::size_t>(decisionLevel())];
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
      if (next == kUndefLit) {
        ++decisions_;
        next = pickBranchLit();
        if (next == kUndefLit) {
          model_ = assigns_;  // complete assignment found
          return Status::Sat;
        }
      }
      newDecisionLevel();
      uncheckedEnqueue(next, kNoReason);
    }
  }
}

Status Solver::solve(std::span<const Lit> assumptions) {
  return solveLimited(assumptions, -1);
}

Status Solver::solveLimited(std::span<const Lit> assumptions,
                            std::int64_t conflictBudget) {
  CBQ_OBS_SPAN("sat", "solve");
  // Injection site: throw-mode blows up the solve (containment testing);
  // fail-mode reports Undef through the normal inconclusive path, which
  // callers must already handle (budget exhaustion looks identical).
  CBQ_FAULT_POINT("sat.solve");
  if (CBQ_FAULT_FAIL("sat.solve")) return Status::Undef;
  conflictCore_.clear();
  if (!ok_) return Status::Unsat;
  assumptions_.assign(assumptions.begin(), assumptions.end());

  maxLearnts_ =
      std::max(static_cast<double>(clauses_.size()) * 0.3, 1000.0);
  std::int64_t remaining = conflictBudget;
  int restarts = 0;
  Status st = Status::Undef;
  while (st == Status::Undef) {
    if (interrupt_ && interrupt_()) break;
    std::int64_t allowed = static_cast<std::int64_t>(
        luby(2.0, restarts) * kRestartBase);
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

}  // namespace cbq::sat
