#pragma once
// Lazy, incremental Tseitin encoding of AIG cones into a live SAT solver.
//
// This realizes the paper's "load the clause database once and for all"
// strategy (§2.1): one AigCnf binds one solver to one AIG manager for the
// lifetime of a sweeping/quantification session. Every equivalence,
// implication or constancy query is phrased purely through *assumptions*,
// so thousands of compare-point checks share clauses and learned facts
// without ever retracting anything.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "sat/solver.hpp"
#include "sat/types.hpp"
#include "util/var_table.hpp"

namespace cbq::audit {
struct Access;
}

namespace cbq::cnf {

/// Binds an AIG manager to a SAT solver and encodes cones on demand.
class AigCnf {
 public:
  AigCnf(const aig::Aig& aig, sat::Solver& solver)
      : aig_(&aig), solver_(&solver) {}

  /// SAT literal equivalent to AIG literal `l`; encodes the cone of `l`
  /// (three clauses per AND node) on first use.
  sat::Lit litFor(aig::Lit l);

  /// Encodes the cones of `roots` and focuses the solver's branching on
  /// exactly their variables (Solver::focusDecisions). In a run-long
  /// shared clause database this caps the cost of a query at the size of
  /// its own cone instead of the size of everything ever encoded. Queries
  /// issued afterwards must keep their assumptions inside these cones —
  /// or inside nodes created later, which stay decidable by default.
  void focusOn(std::span<const aig::Lit> roots);

  /// Number of AND nodes encoded so far (decision-variable metric used by
  /// the hybrid-engine experiments).
  [[nodiscard]] std::size_t numEncodedNodes() const { return encodedAnds_; }

  [[nodiscard]] sat::Solver& solver() { return *solver_; }
  [[nodiscard]] const aig::Aig& aig() const { return *aig_; }

  /// True when `n` already has a solver variable (its cone reached the
  /// encoder). Lets callers learn facts without forcing fresh encodes.
  [[nodiscard]] bool hasVarFor(aig::NodeId n) const {
    return n < nodeVar_.size() && nodeVar_[n] != sat::kUndefVar;
  }

  /// After a Sat answer: model value of an AIG PI (false when the variable
  /// never reached the solver).
  [[nodiscard]] bool modelOf(aig::VarId var) const;

  /// After a Sat answer: 64-bit simulation word for each varId in `vars`,
  /// whose bit 0 is the counterexample and whose remaining 63 bits are
  /// random noise from `rng`. Used for counterexample-guided refinement;
  /// the result feeds Aig::simulate directly.
  [[nodiscard]] util::VarTable<std::uint64_t> modelPattern(
      std::span<const aig::VarId> vars, std::uint64_t (*noise)(void* ctx),
      void* ctx) const;

 private:
  friend struct ::cbq::audit::Access;

  sat::Var varForNode(aig::NodeId n);

  const aig::Aig* aig_;
  sat::Solver* solver_;
  std::vector<sat::Var> nodeVar_;  // indexed by NodeId; kUndefVar = not yet
  std::size_t encodedAnds_ = 0;
};

/// Three-valued verdict of a budgeted semantic query, shared with the
/// circuit solver's sat::check* family (sat/types.hpp defines it).
using Verdict = sat::Verdict;

/// Does `a ≡ b` (as Boolean functions)? Checked as two assumption-only SAT
/// calls (a∧¬b, ¬a∧b); `budget` caps conflicts per call (<0 = unlimited).
/// On Fails the solver's model is a distinguishing input assignment.
Verdict checkEquiv(AigCnf& cnf, aig::Lit a, aig::Lit b,
                   std::int64_t budget = -1);

/// Does `a → b` hold? (SAT query a ∧ ¬b.)
Verdict checkImplies(AigCnf& cnf, aig::Lit a, aig::Lit b,
                     std::int64_t budget = -1);

/// Is `a` constantly equal to `value`?
Verdict checkConstant(AigCnf& cnf, aig::Lit a, bool value,
                      std::int64_t budget = -1);

/// Is `f` satisfiable at all? Returns Holds when SAT, Fails when UNSAT.
Verdict checkSat(AigCnf& cnf, aig::Lit f, std::int64_t budget = -1);

}  // namespace cbq::cnf
