#include "sweep/sweep_context.hpp"

#include <algorithm>
#include <utility>

namespace cbq::sweep {

void SweepContext::setInterrupt(std::function<bool()> callback) {
  interrupt_ = std::move(callback);
  if (solver_) solver_->setInterrupt(interrupt_);
}

bool SweepContext::bind(const aig::Aig& aig) {
  if (boundTo(aig)) return false;
  if (solver_) {
    ++counters_.rebinds;
    // Retire the old solver's effort so run totals survive rebinds.
    retiredConflicts_ += solver_->conflicts();
    retiredDecisions_ += solver_->decisions();
    retiredPropagations_ += solver_->propagations();
  }
  solver_ = std::make_unique<sat::CircuitSolver>(aig);
  if (interrupt_) solver_->setInterrupt(interrupt_);
  aig_ = &aig;
  uid_ = aig.uid();
  return true;
}

// ----- queries ----------------------------------------------------------

void SweepContext::focusOn(std::span<const aig::Lit> roots) {
  solver_->focusOn(roots);
}

sat::Verdict SweepContext::checkEquiv(aig::Lit a, aig::Lit b,
                                      std::int64_t budget) {
  ++counters_.queries;
  return sat::checkEquiv(*solver_, a, b, budget);
}

sat::Verdict SweepContext::checkImplies(aig::Lit a, aig::Lit b,
                                        std::int64_t budget) {
  ++counters_.queries;
  return sat::checkImplies(*solver_, a, b, budget);
}

sat::Verdict SweepContext::checkConstant(aig::Lit a, bool value,
                                         std::int64_t budget) {
  ++counters_.queries;
  return sat::checkConstant(*solver_, a, value, budget);
}

sat::Verdict SweepContext::checkSat(aig::Lit f, std::int64_t budget) {
  ++counters_.queries;
  return sat::checkSat(*solver_, f, budget);
}

sat::Verdict SweepContext::checkEquivUnderCare(aig::Lit notRef, aig::Lit a,
                                               aig::Lit b,
                                               std::int64_t budget) {
  ++counters_.queries;
  return sat::checkEquivUnderCare(*solver_, notRef, a, b, budget);
}

void SweepContext::learnEquiv(aig::Lit a, aig::Lit b) {
  solver_->addClause({!a, b});
  solver_->addClause({a, !b});
}

void SweepContext::learnConstant(aig::Lit a, bool value) {
  // `a == value` as a unit clause: assert the literal equal to `value`.
  solver_->addClause({a ^ !value});
}

// ----- counterexample bank ---------------------------------------------

void SweepContext::bankModel(std::span<const aig::VarId> support) {
  const std::uint64_t slot = bankWrites_++ % kBankPatterns;
  const std::size_t w = slot / 64;
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  for (const aig::VarId v : support) {
    BankRow row = bank_.get(v, BankRow{});
    row[w] = modelOf(v) ? row[w] | bit : row[w] & ~bit;
    bank_.set(v, row);
  }
}

int SweepContext::bankedPatterns() const {
  return static_cast<int>(
      std::min<std::uint64_t>(bankWrites_, kBankPatterns));
}

std::uint64_t SweepContext::totalConflicts() const {
  return retiredConflicts_ + (solver_ ? solver_->conflicts() : 0);
}

std::uint64_t SweepContext::totalDecisions() const {
  return retiredDecisions_ + (solver_ ? solver_->decisions() : 0);
}

std::uint64_t SweepContext::totalPropagations() const {
  return retiredPropagations_ + (solver_ ? solver_->propagations() : 0);
}

void SweepContext::exportStats(obs::Metrics& stats) const {
  stats.add("sat.conflicts", static_cast<std::int64_t>(totalConflicts()));
  stats.add("sat.decisions", static_cast<std::int64_t>(totalDecisions()));
  stats.add("sat.propagations",
            static_cast<std::int64_t>(totalPropagations()));
  stats.add("sweep.session_rebinds",
            static_cast<std::int64_t>(counters_.rebinds));
  // Historical name from when two engines split the queries; perfbench's
  // sat.circuit_share still reads it.
  stats.add("sat.backend.circuit_wins",
            static_cast<std::int64_t>(counters_.queries));
}

}  // namespace cbq::sweep
