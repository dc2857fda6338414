#pragma once
// Circuit-native CDCL: the solver state IS the AIG.
//
// The CNF path pays an AIG → Tseitin → clause-database encode on every
// fresh cone before the first conflict can happen. This solver skips the
// translation entirely, in the style of circuit-SAT CDCL engines
// (Kuehlmann-style justification search, the Circuit-CaDiCaL exemplar):
//
//  * BCP walks the AND/INV structure directly. Per node the solver keeps
//    an intrusive fanout-edge list; assigning a node fires the gate rules
//    of its own AND and of every parent AND — no watch lists for the
//    circuit part, the graph is the watch structure. The lists hold
//    exactly the parents in focus, so propagation and backtracking never
//    walk the garbage a growing manager accumulates outside the query.
//  * Decisions come from a justification frontier: a max-heap (on the
//    same EVSIDS activities the CNF solver uses, indexed by gate) of
//    AND nodes currently assigned false with no false fanin. A decision
//    falsifies one fanin of the hottest unjustified gate; when the
//    frontier drains at propagation fixpoint the assignment extends to a
//    total model (unassigned PIs default to false), so the solver can
//    answer Sat without assigning the rest of the manager.
//  * Learnt constraints are stored as extra multi-input AND gates in a
//    solver-owned arena: a learnt clause ¬l1 ∨ … ∨ ¬lk is recorded as
//    the gate AND(l1…lk) fixed to false, watched MiniSat-style by its
//    first two inputs. The arena never touches the shared aig::Aig.
//
// Everything else — first-UIP analysis with clause minimization, phase
// saving, Luby restarts, conflict budgets, assumption solving, the
// cooperative interrupt — mirrors sat::Solver, so the CNF pipeline
// (cnf::AigCnf + sat::Solver) serves as its differential-test oracle.
//
// A solver literal is an aig::Lit; a solver variable is an aig::NodeId.
// The bound manager may keep growing (quantification builds miters
// between queries): sync() lazily extends the per-node state, so nodes
// created after construction are first-class the moment they are used.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/lit.hpp"
#include "obs/metrics.hpp"
#include "sat/types.hpp"

namespace cbq::audit {
struct Access;
}  // namespace cbq::audit

namespace cbq::sat {

class CircuitSolver {
 public:
  /// Binds to `aig` (non-owning; the manager must outlive the solver).
  explicit CircuitSolver(const aig::Aig& aig);

  CircuitSolver(const CircuitSolver&) = delete;
  CircuitSolver& operator=(const CircuitSolver&) = delete;

  /// Satisfiability of the bound circuit under `assumptions`, bounded by
  /// `conflictBudget` (< 0 = unlimited). Undef on budget/interrupt.
  Status solveLimited(std::span<const aig::Lit> assumptions,
                      std::int64_t conflictBudget);

  /// Restricts the solver to the cones of `roots`: gates outside the
  /// focus are neither propagated nor justified, so a query costs its
  /// cone, not the manager. Nodes created later stay out of focus until
  /// the next focusOn. A solver that is never focused covers every node
  /// (all-SAT enumeration relies on that: its blocking clauses name
  /// nodes outside the enumerated formula's cone).
  void focusOn(std::span<const aig::Lit> roots);

  /// Adds a permanent constraint clause over AIG literals. Returns false
  /// when the constraint database became unsatisfiable.
  bool addClause(std::span<const aig::Lit> lits);
  bool addClause(std::initializer_list<aig::Lit> lits) {
    return addClause(std::span<const aig::Lit>(lits.begin(), lits.size()));
  }

  /// Model value of PI variable `v` after a Sat answer (false for a PI
  /// the search never assigned — a free input).
  [[nodiscard]] bool modelOf(aig::VarId v) const;

  /// Cooperative cancellation hook, polled during search.
  void setInterrupt(std::function<bool()> callback) {
    interrupt_ = std::move(callback);
  }

  /// Effort counters, cumulative over the solver's lifetime.
  [[nodiscard]] std::uint64_t conflicts() const { return conflicts_; }
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }
  [[nodiscard]] std::uint64_t propagations() const { return propagations_; }

  [[nodiscard]] bool okay() const { return ok_; }

  /// Model value of a literal after a Sat answer (Undef = unconstrained).
  [[nodiscard]] LBool modelValue(aig::Lit l) const {
    const aig::NodeId n = l.node();
    if (n >= modelStamp_.size() || modelStamp_[n] != modelEpoch_)
      return LBool::Undef;
    return lxor(lbool(modelVal_[n] != 0), l.negated());
  }

  /// After Unsat under assumptions: negated contradictory assumptions.
  [[nodiscard]] const std::vector<aig::Lit>& conflictCore() const {
    return conflictCore_;
  }

  [[nodiscard]] std::size_t numPermanents() const {
    return permanents_.size();
  }
  [[nodiscard]] std::size_t numLearnts() const { return learnts_.size(); }

 private:
  friend struct ::cbq::audit::Access;

  using NodeId = aig::NodeId;

  // Learnt-gate arena: same layout as Solver's clause arena —
  // [inputs<<1|learnt][activity-bits][lit 0]…[lit n-1], the first two
  // literals watched. Record = multi-input AND over the NEGATED stored
  // literals, fixed false (stored lits are the clause view).
  using GateRef = std::uint32_t;
  static constexpr GateRef kNoRef = 0xffffffffu;
  static constexpr std::uint32_t kNoLitRaw = 0xffffffffu;
  static constexpr std::uint32_t kNoEdge = 0xffffffffu;

  struct Watcher {
    GateRef gref;
    aig::Lit blocker;
  };

  /// Why a node holds its value. Gate implications carry their (at most
  /// two) antecedents inline in clause polarity — the implication
  /// (¬a ∨ ¬b ∨ p) is stored as {a:¬a, b:¬b}, every stored literal false
  /// when the reason is created. Arena constraints carry their GateRef
  /// (implied literal swapped to position 0, MiniSat discipline).
  /// Decisions and assumptions carry neither.
  struct Reason {
    std::uint32_t a = kNoLitRaw;
    std::uint32_t b = kNoLitRaw;
    GateRef ref = kNoRef;

    [[nodiscard]] bool isNone() const {
      return ref == kNoRef && a == kNoLitRaw;
    }
  };

  // Arena accessors.
  [[nodiscard]] std::uint32_t gateSize(GateRef g) const {
    return arena_[g] >> 1;
  }
  [[nodiscard]] bool gateLearnt(GateRef g) const {
    return (arena_[g] & 1) != 0;
  }
  [[nodiscard]] aig::Lit gateLit(GateRef g, std::uint32_t i) const {
    return aig::Lit::fromRaw(arena_[g + 2 + i]);
  }
  void setGateLit(GateRef g, std::uint32_t i, aig::Lit l) {
    arena_[g + 2 + i] = l.raw();
  }
  [[nodiscard]] float gateActivity(GateRef g) const;
  void setGateActivity(GateRef g, float a);

  GateRef allocGate(std::span<const aig::Lit> lits, bool learnt);
  void attachGate(GateRef g);
  void detachGate(GateRef g);
  [[nodiscard]] bool gateLocked(GateRef g) const;

  // Assignment handling.
  [[nodiscard]] LBool value(aig::Lit l) const {
    return lxor(assigns_[l.node()], l.negated());
  }
  [[nodiscard]] LBool nodeValue(NodeId n) const { return assigns_[n]; }
  [[nodiscard]] int decisionLevel() const {
    return static_cast<int>(trailLim_.size());
  }
  void newDecisionLevel() {
    trailLim_.push_back(static_cast<int>(trail_.size()));
  }
  void uncheckedEnqueue(aig::Lit p, Reason from);
  void cancelUntil(int level);

  /// True when some fanin of AND node `n` is assigned false.
  [[nodiscard]] bool justified(NodeId n) const {
    return value(aig_->fanin0(n)) == LBool::False ||
           value(aig_->fanin1(n)) == LBool::False;
  }

  /// Focus membership. Epoch-stamped so focusOn costs the cone, not the
  /// manager: a node is in focus iff its stamp matches the current
  /// focus epoch. Unfocused solvers treat every node as in focus.
  [[nodiscard]] bool inFocus(NodeId n) const {
    return !focused_ || focusStamp_[n] == focusEpoch_;
  }

  /// First fanout edge of `n`. Only an in-focus node's list is current
  /// (an out-of-focus node has no in-focus parent), so every other list
  /// reads as empty.
  [[nodiscard]] std::uint32_t fanoutHead(NodeId n) const {
    return inFocus(n) ? head_[n] : kNoEdge;
  }

  /// Pushes AND `m`'s two fanout edges onto its fanins' lists.
  void linkFanout(NodeId m);

  // Propagation. On conflict conflictGate_/conflictLits_ hold the
  // conflicting constraint in clause view (every literal false).
  bool propagate();
  bool propagateGate(aig::Lit p);
  bool propagateWatches(aig::Lit p);
  bool enqueueImplied(aig::Lit p, Reason from);

  // Conflict analysis.
  void analyze(std::vector<aig::Lit>& outLearnt, int& outBtLevel);
  [[nodiscard]] bool litRedundant(aig::Lit p);
  void analyzeFinal(aig::Lit p, std::vector<aig::Lit>& outCore);

  // Branching = justification.
  void varBumpActivity(NodeId n);
  void varDecayActivity() { varInc_ *= (1.0 / kVarDecay); }
  void claBumpActivity(GateRef g);
  void claDecayActivity() { claInc_ *= (1.0f / kClaDecay); }
  aig::Lit pickJustification();

  // Justification frontier (max-heap on activity over AND nodes).
  void frontierClear();
  void frontierInsert(NodeId n);
  void frontierDecrease(NodeId n);
  NodeId frontierPop();
  [[nodiscard]] bool frontierEmpty() const { return heap_.empty(); }
  [[nodiscard]] bool inFrontier(NodeId n) const {
    return heapIndex_[n] >= 0;
  }
  void heapUp(int i);
  void heapDown(int i);

  /// Extends per-node state to the manager's current size and, while the
  /// solver is unfocused, links the fanout edges of newly created ANDs.
  void sync();

  void reduceDB();
  Status search(std::int64_t conflictsAllowed);

  // ----- data ----------------------------------------------------------

  const aig::Aig* aig_;
  NodeId syncedNodes_ = 0;
  bool ok_ = true;

  // Fanout edges: edge id 2*parent+slot; head_ indexed by fanin node.
  // The lists hold exactly the in-focus parents: sync() links every AND
  // of an unfocused solver, focusOn relinks the focus cone's ANDs.
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> nextEdge_;

  // Learnt-gate arena.
  std::vector<std::uint32_t> arena_;
  std::vector<GateRef> permanents_;
  std::vector<GateRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::raw()

  std::vector<LBool> assigns_;        // per node, value of Lit(n, false)
  std::vector<std::uint8_t> polarity_;  // last assigned lit's negated bit
  std::vector<int> levels_;
  std::vector<Reason> reasons_;
  std::vector<aig::Lit> trail_;
  std::vector<int> trailLim_;
  int qhead_ = 0;

  std::vector<double> activity_;
  std::vector<std::uint32_t> focusStamp_;  // == focusEpoch_ -> in focus
  std::uint32_t focusEpoch_ = 0;
  bool focused_ = false;
  double varInc_ = 1.0;
  float claInc_ = 1.0f;
  std::vector<NodeId> heap_;
  std::vector<int> heapIndex_;

  std::vector<aig::Lit> assumptions_;
  std::vector<aig::Lit> conflictCore_;
  // Model = the trail at the Sat answer, epoch-stamped: recording it
  // costs O(assigned), not O(manager). Stale stamps read as Undef.
  std::vector<std::uint32_t> modelStamp_;
  std::vector<std::uint8_t> modelVal_;
  std::uint32_t modelEpoch_ = 0;
  std::function<bool()> interrupt_;

  // Conflict in clause view: a gate ref, or up to 3 inline literals.
  GateRef conflictGate_ = kNoRef;
  std::vector<aig::Lit> conflictLits_;

  // Scratch for analyze().
  std::vector<std::uint8_t> seen_;
  std::vector<aig::Lit> analyzeToClear_;

  std::uint64_t conflicts_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t propagations_ = 0;
  double maxLearnts_ = 0.0;

  static constexpr double kVarDecay = 0.95;
  static constexpr float kClaDecay = 0.999f;
  static constexpr int kRestartBase = 100;
};

// Budgeted semantic checks. Same contracts as the cnf::check* family
// (aig_cnf.hpp): structural short-circuits first, then assumption-only
// queries; Unknown on budget exhaustion.

/// a == b everywhere?
[[nodiscard]] Verdict checkEquiv(CircuitSolver& solver, aig::Lit a,
                                 aig::Lit b, std::int64_t budget = -1);

/// a -> b everywhere?
[[nodiscard]] Verdict checkImplies(CircuitSolver& solver, aig::Lit a,
                                   aig::Lit b, std::int64_t budget = -1);

/// a == value everywhere?
[[nodiscard]] Verdict checkConstant(CircuitSolver& solver, aig::Lit a,
                                    bool value, std::int64_t budget = -1);

/// Is f satisfiable? Holds = yes, Fails = no.
[[nodiscard]] Verdict checkSat(CircuitSolver& solver, aig::Lit f,
                               std::int64_t budget = -1);

/// a == b on every input satisfying `notRef` (care-set equivalence: the
/// DC-simplification query assumes the don't-care condition's literal).
[[nodiscard]] Verdict checkEquivUnderCare(CircuitSolver& solver,
                                          aig::Lit notRef, aig::Lit a,
                                          aig::Lit b,
                                          std::int64_t budget = -1);

/// Twin of exportEffort(stats, Solver) in solver.hpp: canonical
/// sat.conflicts / sat.decisions / sat.propagations counters.
inline void exportEffort(obs::Metrics& stats, const CircuitSolver& solver) {
  stats.add("sat.conflicts", static_cast<std::int64_t>(solver.conflicts()));
  stats.add("sat.decisions", static_cast<std::int64_t>(solver.decisions()));
  stats.add("sat.propagations",
            static_cast<std::int64_t>(solver.propagations()));
}

}  // namespace cbq::sat
