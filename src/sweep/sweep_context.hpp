#pragma once
// Persistent sweeping session — the paper's §2.1 "load the clause database
// once and for all", widened from one sweep() call to a whole
// reachability run.
//
// A SweepContext owns one sat::CircuitSolver bound to one AIG manager.
// Every SAT query its owner makes shares that single solver: the
// per-variable quantification sweeps and don't-care simplifications of
// every backward iteration, or the fixpoint checks whose cones are past
// the truth-table bound (smaller ones are word loops over
// Signatures::truthTables and reach no solver). The AIG itself is the
// constraint database (nothing is encoded), learnt gates and
// proven-equivalence facts accumulate, and the solver's heuristic state
// (activities, saved phases) carries over. Nothing is encoded as the
// manager grows, and a focused query walks only its own cone's fanout:
// the cofactor, miter and ODC scratch the manager accumulates between
// compactions stays outside the focus and costs the session nothing but
// per-node state.
//
// On top of the solver the context keeps a bank of the last
// kBankPatterns SAT counterexamples of the §2.1 merge phase: the input
// patterns on which a proposed compare point was refuted. They are
// stored per VarId, which every manager of a run shares, so the bank
// outlives bind(): a rebind — to another manager, or to the same object
// after a compaction moved fresh contents into it — retires only the
// solver. sweep() seeds each random signature arena with the bank, so a
// pair refuted by an earlier sweep starts out split and is not proposed
// again.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "aig/aig.hpp"
#include "sat/circuit_solver.hpp"
#include "obs/metrics.hpp"
#include "util/var_table.hpp"

namespace cbq::sweep {

class SweepContext {
 public:
  SweepContext() = default;
  SweepContext(const SweepContext&) = delete;
  SweepContext& operator=(const SweepContext&) = delete;

  /// Cooperative interrupt, installed on the current solver and on every
  /// solver a future rebind creates (deep cancellation for portfolio
  /// races and wall deadlines).
  void setInterrupt(std::function<bool()> callback);

  /// Polls the installed interrupt (false when none is installed). The
  /// sweeper, both DC phases and the quantifier's variable schedule stop
  /// early — soundly — once it fires.
  [[nodiscard]] bool interrupted() const { return interrupt_ && interrupt_(); }

  /// Binds the session to `aig`, reusing the live solver when the
  /// manager identity is unchanged. Returns true when the session was
  /// (re)built — the previous solver was retired. The bank is kept.
  bool bind(const aig::Aig& aig);

  /// True when bind(aig) would be a no-op.
  [[nodiscard]] bool boundTo(const aig::Aig& aig) const {
    return solver_ != nullptr && aig_ == &aig && uid_ == aig.uid();
  }

  /// The live solver. Precondition: bind() has been called.
  [[nodiscard]] sat::CircuitSolver& circuitSolver() { return *solver_; }
  [[nodiscard]] const sat::CircuitSolver& circuitSolver() const {
    return *solver_;
  }

  // ----- queries ----------------------------------------------------------

  /// Restricts the solver's justification to the cones of `roots`.
  void focusOn(std::span<const aig::Lit> roots);

  [[nodiscard]] sat::Verdict checkEquiv(aig::Lit a, aig::Lit b,
                                        std::int64_t budget = -1);
  [[nodiscard]] sat::Verdict checkImplies(aig::Lit a, aig::Lit b,
                                          std::int64_t budget = -1);
  [[nodiscard]] sat::Verdict checkConstant(aig::Lit a, bool value,
                                           std::int64_t budget = -1);
  [[nodiscard]] sat::Verdict checkSat(aig::Lit f, std::int64_t budget = -1);
  [[nodiscard]] sat::Verdict checkEquivUnderCare(aig::Lit notRef, aig::Lit a,
                                                 aig::Lit b,
                                                 std::int64_t budget = -1);

  /// Model value of PI `v` after the last Sat answer.
  [[nodiscard]] bool modelOf(aig::VarId v) const {
    return solver_ != nullptr && solver_->modelOf(v);
  }

  /// Records a proven equivalence / constant as solver facts.
  void learnEquiv(aig::Lit a, aig::Lit b);
  void learnConstant(aig::Lit a, bool value);

  // ----- counterexample bank ---------------------------------------------

  /// Bank size in 64-pattern words, and the initial words of every
  /// random signature arena sweep() builds, so a full bank fills them.
  static constexpr int kBankWords = 2;
  static constexpr int kBankPatterns = kBankWords * 64;

  /// Banks the last Sat answer's values of `support` as the newest
  /// pattern, overwriting the oldest once kBankPatterns are held. The
  /// pattern's bits of variables outside `support` keep what the slot
  /// held: the refuted query does not depend on them.
  void bankModel(std::span<const aig::VarId> support);

  /// Patterns held, at most kBankPatterns; slot j is bit j % 64 of word
  /// j / 64.
  [[nodiscard]] int bankedPatterns() const;

  /// Word `w` of `v`'s banked values, or `fallback` when no banked
  /// pattern has assigned `v`.
  [[nodiscard]] std::uint64_t bankWord(aig::VarId v, int w,
                                       std::uint64_t fallback) const {
    return bank_.contains(v) ? bank_.at(v)[static_cast<std::size_t>(w)]
                             : fallback;
  }

  struct Counters {
    std::uint64_t rebinds = 0;  ///< sessions retired by identity change
    std::uint64_t queries = 0;  ///< semantic checks asked of the solver
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // ----- cumulative SAT effort (includes retired solvers) ----------------

  [[nodiscard]] std::uint64_t totalConflicts() const;
  [[nodiscard]] std::uint64_t totalDecisions() const;
  [[nodiscard]] std::uint64_t totalPropagations() const;

  /// Adds the session's counters into an engine stats bag under the
  /// canonical names (sat.conflicts/decisions/propagations,
  /// sweep.session_rebinds, and the query count as
  /// sat.backend.circuit_wins).
  void exportStats(obs::Metrics& stats) const;

 private:
  using BankRow = std::array<std::uint64_t, kBankWords>;

  const aig::Aig* aig_ = nullptr;
  std::uint64_t uid_ = 0;
  std::unique_ptr<sat::CircuitSolver> solver_;
  std::function<bool()> interrupt_;
  Counters counters_;
  util::VarTable<BankRow> bank_;  // VarId -> banked values, bit per slot
  std::uint64_t bankWrites_ = 0;  // patterns ever banked

  std::uint64_t retiredConflicts_ = 0;
  std::uint64_t retiredDecisions_ = 0;
  std::uint64_t retiredPropagations_ = 0;
};

}  // namespace cbq::sweep
