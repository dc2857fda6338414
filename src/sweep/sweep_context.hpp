#pragma once
// Persistent sweeping session — the paper's §2.1 "load the clause database
// once and for all", widened from one sweep() call to a whole
// reachability run.
//
// A SweepContext owns one sat::CircuitSolver bound to one AIG manager.
// Every backward-reachability iteration, every per-variable
// quantification sweep, every don't-care simplification and every
// fixpoint check of a run shares that single solver: the AIG itself is
// the constraint database (nothing is encoded), learnt gates and
// proven-equivalence facts accumulate, and the solver's heuristic state
// (activities, saved phases) carries over. The cone IS the solver state,
// so a growing manager never bloats the session.
//
// On top of the solver the context keeps a proven/refuted candidate-pair
// cache. Node functions are immutable within one manager identity
// (Aig::uid(); the node space is append-only), so "m ≡ t" and "m ≢ t"
// are facts that stay true for the lifetime of the binding — a compare
// point re-encountered in iteration k+1 skips SAT entirely. Rebinding to
// a different manager (or the same manager object after a move replaced
// its contents, e.g. periodic compaction) retires the solver and drops
// the cache; bind() validates the uid on every call.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

#include "aig/aig.hpp"
#include "sat/circuit_solver.hpp"
#include "obs/metrics.hpp"

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

  /// Binds the session to `aig`, reusing the live solver/cache when the
  /// manager identity is unchanged. Returns true when the session was
  /// (re)built — the previous solver was retired and the cache dropped.
  bool bind(const aig::Aig& aig);

  /// True when bind(aig) would be a no-op.
  [[nodiscard]] bool boundTo(const aig::Aig& aig) const {
    return solver_ != nullptr && aig_ == &aig && uid_ == aig.uid();
  }

  /// Rebinds to `newMgr` after a compaction, carrying the pair cache
  /// across the NodeId change: `transferMap` is the (old NodeId → new
  /// literal) relation Aig::transferFrom reported, facts about
  /// transferred nodes are rewritten through it, facts about dropped
  /// scratch nodes are discarded. The solver restarts empty (its node
  /// state is unsalvageable), but re-encountered compare points still
  /// skip SAT — compaction no longer costs the learned history.
  void rebindRemapped(
      const aig::Aig& newMgr,
      std::span<const std::pair<aig::NodeId, aig::Lit>> transferMap);

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

  // ----- DC benefit feedback --------------------------------------------
  // Run-level controller for the quantifier's §2.2 phase: dcSimplify
  // outcomes feed an exponentially weighted shrink ratio; while the phase
  // is not reducing cones the quantifier skips it, re-probing every 16th
  // opportunity so a workload shift can turn it back on. The state
  // deliberately survives rebinds/compactions — it describes the
  // workload, not the manager.

  /// Reports one dcSimplify outcome (target cone sizes before/after).
  void noteDcOutcome(std::size_t before, std::size_t after);

  /// Should the next dcSimplify run? (Always true before enough samples.)
  [[nodiscard]] bool shouldAttemptDc();

  /// Reports one ODC phase outcome. ODC validation checks are global
  /// equivalence proofs over fRef ∨ fTgt — brutally expensive on
  /// XOR-rich cones (multipliers) where they essentially never accept,
  /// and load-bearing on counter/queue-style cones where they do.
  void noteOdcOutcome(std::size_t attempts, std::size_t accepted);

  /// Should the next dcSimplify run its ODC phase?
  [[nodiscard]] bool shouldAttemptOdc();

  // ----- candidate-pair cache -------------------------------------------

  enum class PairFact : std::uint8_t { Unknown, Proven, Refuted };

  /// Cached verdict for "a ≡ b" (complement-normalized, symmetric).
  PairFact lookupPair(aig::Lit a, aig::Lit b);
  void recordProven(aig::Lit a, aig::Lit b);
  void recordRefuted(aig::Lit a, aig::Lit b);

  struct Counters {
    std::uint64_t rebinds = 0;      ///< sessions retired by identity change
    std::uint64_t remaps = 0;       ///< caches carried across compactions
    std::uint64_t lookups = 0;      ///< pair-cache queries
    std::uint64_t hitsProven = 0;   ///< queries answered Proven
    std::uint64_t hitsRefuted = 0;  ///< queries answered Refuted
    std::uint64_t queries = 0;      ///< semantic checks asked of the solver
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] std::size_t cacheSize() const { return pairFacts_.size(); }

  // ----- cumulative SAT effort (includes retired solvers) ----------------

  [[nodiscard]] std::uint64_t totalConflicts() const;
  [[nodiscard]] std::uint64_t totalDecisions() const;
  [[nodiscard]] std::uint64_t totalPropagations() const;

  /// Adds the session's counters into an engine stats bag under the
  /// canonical names (sat.conflicts/decisions/propagations,
  /// sweep.cache_lookups/_hits_proven/_hits_refuted, sweep.session_rebinds,
  /// sweep.cache_remaps, and the query count as sat.backend.circuit_wins).
  void exportStats(obs::Metrics& stats) const;

 private:
  static std::uint64_t pairKey(aig::Lit a, aig::Lit b);

  /// Retires the current solver's effort counters and starts a fresh one
  /// bound to `aig` (shared tail of bind / remap).
  void rebuild(const aig::Aig& aig);

  const aig::Aig* aig_ = nullptr;
  std::uint64_t uid_ = 0;
  std::unique_ptr<sat::CircuitSolver> solver_;
  std::unordered_map<std::uint64_t, bool> pairFacts_;  // key -> proven?
  std::function<bool()> interrupt_;
  Counters counters_;

  std::uint64_t retiredConflicts_ = 0;
  std::uint64_t retiredDecisions_ = 0;
  std::uint64_t retiredPropagations_ = 0;

  double dcShrinkEwma_ = 1.0;
  std::uint64_t dcSamples_ = 0;
  std::uint32_t dcProbeTick_ = 0;

  double odcAcceptEwma_ = 1.0;
  std::uint64_t odcSamples_ = 0;
  std::uint32_t odcProbeTick_ = 0;
};

}  // namespace cbq::sweep
