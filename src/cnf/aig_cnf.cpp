#include "cnf/aig_cnf.hpp"

#include <cassert>

namespace cbq::cnf {

sat::Var AigCnf::varForNode(aig::NodeId n) {
  if (nodeVar_.size() < aig_->numNodes())
    nodeVar_.resize(aig_->numNodes(), sat::kUndefVar);
  return nodeVar_[n];
}

sat::Lit AigCnf::litFor(aig::Lit l) {
  if (nodeVar_.size() < aig_->numNodes())
    nodeVar_.resize(aig_->numNodes(), sat::kUndefVar);

  const aig::NodeId root = l.node();
  if (nodeVar_[root] == sat::kUndefVar) {
    // Encode the whole unencoded part of the cone in topological order.
    const aig::Lit roots[] = {l};
    for (const aig::NodeId n : aig_->coneAnds(roots)) {
      if (nodeVar_[n] != sat::kUndefVar) continue;
      const aig::Lit f0 = aig_->fanin0(n);
      const aig::Lit f1 = aig_->fanin1(n);
      // Leaves (PIs / constant) of this cone first.
      for (const aig::Lit f : {f0, f1}) {
        if (nodeVar_[f.node()] == sat::kUndefVar && !aig_->isAnd(f.node())) {
          const sat::Var fv = solver_->newVar();
          nodeVar_[f.node()] = fv;
          if (aig_->isConst(f.node()))
            solver_->addClause({sat::Lit(fv, true)});  // constant node: false
        }
      }
      const sat::Var v = solver_->newVar();
      nodeVar_[n] = v;
      ++encodedAnds_;
      const sat::Lit out(v, false);
      const sat::Lit a =
          sat::Lit(nodeVar_[f0.node()], false) ^ f0.negated();
      const sat::Lit b =
          sat::Lit(nodeVar_[f1.node()], false) ^ f1.negated();
      // v <-> a & b.
      solver_->addClause({!out, a});
      solver_->addClause({!out, b});
      solver_->addClause({!a, !b, out});
    }
    // The root itself may be a PI or the constant (no ANDs in cone).
    if (nodeVar_[root] == sat::kUndefVar) {
      const sat::Var v = solver_->newVar();
      nodeVar_[root] = v;
      if (aig_->isConst(root))
        solver_->addClause({sat::Lit(v, true)});
    }
  }
  return sat::Lit(nodeVar_[root], false) ^ l.negated();
}

bool AigCnf::modelOf(aig::VarId var) const {
  if (!aig_->hasPi(var)) return false;
  const aig::NodeId p = aig_->piNodeOf(var);
  if (p >= nodeVar_.size() || nodeVar_[p] == sat::kUndefVar) return false;
  return solver_->modelTrue(sat::Lit(nodeVar_[p], false));
}

util::VarTable<std::uint64_t> AigCnf::modelPattern(
    std::span<const aig::VarId> vars, std::uint64_t (*noise)(void* ctx),
    void* ctx) const {
  util::VarTable<std::uint64_t> words;
  for (const aig::VarId v : vars) {
    std::uint64_t w = noise(ctx);
    // Bit 0 carries the actual counterexample.
    w = (w & ~std::uint64_t{1}) |
        static_cast<std::uint64_t>(modelOf(v) ? 1 : 0);
    words.set(v, w);
  }
  return words;
}

namespace {

/// One budgeted SAT call under two assumptions.
sat::Status query(AigCnf& cnf, sat::Lit x, sat::Lit y, std::int64_t budget) {
  const sat::Lit assumptions[] = {x, y};
  return cnf.solver().solveLimited(assumptions, budget);
}

}  // namespace

Verdict checkEquiv(AigCnf& cnf, aig::Lit a, aig::Lit b, std::int64_t budget) {
  if (a == b) return Verdict::Holds;
  if (a == !b) return Verdict::Fails;
  const sat::Lit la = cnf.litFor(a);
  const sat::Lit lb = cnf.litFor(b);
  // a ∧ ¬b satisfiable? then not equivalent.
  switch (query(cnf, la, !lb, budget)) {
    case sat::Status::Sat:
      return Verdict::Fails;
    case sat::Status::Undef:
      return Verdict::Unknown;
    case sat::Status::Unsat:
      break;
  }
  switch (query(cnf, !la, lb, budget)) {
    case sat::Status::Sat:
      return Verdict::Fails;
    case sat::Status::Undef:
      return Verdict::Unknown;
    case sat::Status::Unsat:
      return Verdict::Holds;
  }
  return Verdict::Unknown;
}

Verdict checkImplies(AigCnf& cnf, aig::Lit a, aig::Lit b,
                     std::int64_t budget) {
  if (a == b || a.isFalse() || b.isTrue()) return Verdict::Holds;
  const sat::Lit la = cnf.litFor(a);
  const sat::Lit lb = cnf.litFor(b);
  switch (query(cnf, la, !lb, budget)) {
    case sat::Status::Sat:
      return Verdict::Fails;
    case sat::Status::Undef:
      return Verdict::Unknown;
    case sat::Status::Unsat:
      return Verdict::Holds;
  }
  return Verdict::Unknown;
}

Verdict checkConstant(AigCnf& cnf, aig::Lit a, bool value,
                      std::int64_t budget) {
  if (a.isConstant()) {
    return (a.isTrue() == value) ? Verdict::Holds : Verdict::Fails;
  }
  const sat::Lit la = cnf.litFor(a) ^ value;  // la false iff a == value
  const sat::Lit assumptions[] = {la};
  switch (cnf.solver().solveLimited(assumptions, budget)) {
    case sat::Status::Sat:
      return Verdict::Fails;
    case sat::Status::Undef:
      return Verdict::Unknown;
    case sat::Status::Unsat:
      return Verdict::Holds;
  }
  return Verdict::Unknown;
}

Verdict checkSat(AigCnf& cnf, aig::Lit f, std::int64_t budget) {
  if (f.isTrue()) return Verdict::Holds;
  if (f.isFalse()) return Verdict::Fails;
  const sat::Lit lf = cnf.litFor(f);
  const sat::Lit assumptions[] = {lf};
  switch (cnf.solver().solveLimited(assumptions, budget)) {
    case sat::Status::Sat:
      return Verdict::Holds;
    case sat::Status::Undef:
      return Verdict::Unknown;
    case sat::Status::Unsat:
      return Verdict::Fails;
  }
  return Verdict::Unknown;
}

}  // namespace cbq::cnf
