#pragma once
// Incremental CDCL SAT solver.
//
// The paper implements its "SAT-merge" routine on top of ZChaff: one clause
// database loaded once, many equivalence checks factorized into a single
// run. This solver reproduces that usage pattern with a MiniSat-style
// architecture:
//  * two-literal watching with blocker literals,
//  * first-UIP conflict analysis with local clause minimization,
//  * EVSIDS variable activities + phase saving,
//  * Luby restarts, activity-driven learned-clause reduction,
//  * solving under assumptions with final-conflict (failed-assumption)
//    extraction — this is what lets thousands of sweeping checks share the
//    clause database, and
//  * per-call conflict budgets so equivalence checks can be abandoned
//    cheaply (the sweeping engine treats a budget-out as "unknown").

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sat/types.hpp"
#include "obs/metrics.hpp"

namespace cbq::sat {

class Solver {
 public:
  Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  // ----- problem construction -----------------------------------------

  /// Creates a fresh variable and returns it.
  Var newVar();

  [[nodiscard]] int numVars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause. Returns false when the database is already/becomes
  /// unsatisfiable at level 0. Duplicates and tautologies are handled.
  bool addClause(std::span<const Lit> lits);
  bool addClause(std::initializer_list<Lit> lits) {
    return addClause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// True while no level-0 contradiction has been derived.
  [[nodiscard]] bool okay() const { return ok_; }

  // ----- solving --------------------------------------------------------

  /// Solves under the given assumptions. Unlimited conflicts.
  Status solve(std::span<const Lit> assumptions = {});

  /// Solves with a conflict budget; returns Undef when the budget runs out
  /// before an answer is found. `budget` < 0 means unlimited.
  Status solveLimited(std::span<const Lit> assumptions,
                      std::int64_t conflictBudget);

  /// Installs a cooperative interrupt: polled every few hundred search
  /// steps; while it returns true, solve calls return Undef promptly.
  /// This is how the portfolio runner's cancellation reaches into a
  /// long-running monolithic solve. Pass nullptr to clear.
  void setInterrupt(std::function<bool()> callback) {
    interrupt_ = std::move(callback);
  }

  /// Restricts branching to `vars` (variables created after this call
  /// stay decidable by default). A Sat answer then assigns every focused
  /// variable but may leave the rest of the clause database untouched —
  /// sound whenever the unfocused part is satisfiable under any partial
  /// model of the focused part, which holds for Tseitin circuit cones
  /// plus implied (learned) facts. This is what keeps per-query cost
  /// proportional to the query's cone in a run-long shared database
  /// instead of to everything ever encoded. Callers must focus on a
  /// superset of every assumption's transitive cone.
  void focusDecisions(std::span<const Var> vars);

  /// Back to full decidability (every query assigns every variable).
  void unfocusDecisions();

  /// Model value of a literal after a Sat answer.
  [[nodiscard]] LBool modelValue(Lit l) const {
    return lxor(model_[static_cast<std::size_t>(l.var())], l.sign());
  }
  [[nodiscard]] bool modelTrue(Lit l) const {
    return modelValue(l) == LBool::True;
  }

  /// After Unsat under assumptions: the subset of assumptions (negated)
  /// proven contradictory — the "final conflict clause".
  [[nodiscard]] const std::vector<Lit>& conflictCore() const {
    return conflictCore_;
  }

  // ----- statistics -------------------------------------------------------

  [[nodiscard]] std::uint64_t conflicts() const { return conflicts_; }
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }
  [[nodiscard]] std::uint64_t propagations() const { return propagations_; }
  [[nodiscard]] std::size_t numClauses() const { return clauses_.size(); }
  [[nodiscard]] std::size_t numLearnts() const { return learnts_.size(); }

 private:
  // Clauses live in a flat arena; a ClauseRef is an offset into it.
  // Layout: [header][activity-bits][lit 0]...[lit n-1], watched lits first.
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoReason = 0xffffffffu;

  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  // Arena accessors.
  [[nodiscard]] std::uint32_t clauseSize(ClauseRef c) const {
    return arena_[c] >> 1;
  }
  [[nodiscard]] bool clauseLearnt(ClauseRef c) const {
    return (arena_[c] & 1) != 0;
  }
  [[nodiscard]] Lit clauseLit(ClauseRef c, std::uint32_t i) const {
    return Lit::fromIndex(static_cast<std::int32_t>(arena_[c + 2 + i]));
  }
  void setClauseLit(ClauseRef c, std::uint32_t i, Lit l) {
    arena_[c + 2 + i] = static_cast<std::uint32_t>(l.index());
  }
  [[nodiscard]] float clauseActivity(ClauseRef c) const;
  void setClauseActivity(ClauseRef c, float a);

  ClauseRef allocClause(std::span<const Lit> lits, bool learnt);
  void attachClause(ClauseRef c);
  void detachClause(ClauseRef c);
  void removeClause(ClauseRef c);
  [[nodiscard]] bool clauseLocked(ClauseRef c) const;

  // Assignment handling.
  [[nodiscard]] LBool value(Lit l) const {
    return lxor(assigns_[static_cast<std::size_t>(l.var())], l.sign());
  }
  [[nodiscard]] LBool value(Var v) const {
    return assigns_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] int decisionLevel() const {
    return static_cast<int>(trailLim_.size());
  }
  void newDecisionLevel() { trailLim_.push_back(static_cast<int>(trail_.size())); }
  void uncheckedEnqueue(Lit p, ClauseRef from);
  void cancelUntil(int level);

  ClauseRef propagate();

  // Conflict analysis.
  void analyze(ClauseRef confl, std::vector<Lit>& outLearnt, int& outBtLevel);
  [[nodiscard]] bool litRedundant(Lit p);
  void analyzeFinal(Lit p, std::vector<Lit>& outCore);

  // Branching.
  void varBumpActivity(Var v);
  void varDecayActivity() { varInc_ *= (1.0 / kVarDecay); }
  void claBumpActivity(ClauseRef c);
  void claDecayActivity() { claInc_ *= (1.0f / kClaDecay); }
  Lit pickBranchLit();

  // Order heap (max-heap on activity).
  void heapInsert(Var v);
  void heapDecrease(Var v);  // activity increased -> move up
  Var heapPop();
  [[nodiscard]] bool heapEmpty() const { return heap_.empty(); }
  [[nodiscard]] bool inHeap(Var v) const {
    return heapIndex_[static_cast<std::size_t>(v)] >= 0;
  }
  void heapUp(int i);
  void heapDown(int i);

  void reduceDB();
  Status search(std::int64_t conflictsAllowed);

  static double luby(double y, int i);

  // ----- data ------------------------------------------------------------

  bool ok_ = true;
  std::vector<std::uint32_t> arena_;
  std::vector<ClauseRef> clauses_;
  std::vector<ClauseRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index()

  std::vector<LBool> assigns_;
  std::vector<bool> polarity_;      // phase saving (last value, as sign)
  std::vector<int> levels_;
  std::vector<ClauseRef> reasons_;
  std::vector<Lit> trail_;
  std::vector<int> trailLim_;
  int qhead_ = 0;

  std::vector<double> activity_;
  std::vector<std::uint8_t> decidable_;  // focusDecisions() mask
  double varInc_ = 1.0;
  float claInc_ = 1.0f;
  std::vector<Var> heap_;
  std::vector<int> heapIndex_;

  std::vector<Lit> assumptions_;
  std::vector<Lit> conflictCore_;
  std::vector<LBool> model_;
  std::function<bool()> interrupt_;

  // Scratch buffers for analyze().
  std::vector<bool> seen_;
  std::vector<Lit> analyzeToClear_;
  std::vector<Lit> analyzeStack_;

  std::uint64_t conflicts_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t propagations_ = 0;
  double maxLearnts_ = 0.0;

  static constexpr double kVarDecay = 0.95;
  static constexpr float kClaDecay = 0.999f;
  static constexpr int kRestartBase = 100;
};

/// Adds a solver's effort to a stats bag under the canonical counter
/// names every engine shares (surfaced in the portfolio JSON/CSV
/// reports): sat.conflicts / sat.decisions / sat.propagations.
inline void exportEffort(obs::Metrics& stats, const Solver& solver) {
  stats.add("sat.conflicts", static_cast<std::int64_t>(solver.conflicts()));
  stats.add("sat.decisions", static_cast<std::int64_t>(solver.decisions()));
  stats.add("sat.propagations",
            static_cast<std::int64_t>(solver.propagations()));
}

}  // namespace cbq::sat
