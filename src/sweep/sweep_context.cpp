#include "sweep/sweep_context.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace cbq::sweep {

void SweepContext::setInterrupt(std::function<bool()> callback) {
  interrupt_ = std::move(callback);
  if (solver_) solver_->setInterrupt(interrupt_);
}

void SweepContext::rebuild(const aig::Aig& aig) {
  if (solver_) {
    // Retire the old solver's effort so run totals survive rebuilds.
    retiredConflicts_ += solver_->conflicts();
    retiredDecisions_ += solver_->decisions();
    retiredPropagations_ += solver_->propagations();
  }
  solver_ = std::make_unique<sat::CircuitSolver>(aig);
  if (interrupt_) solver_->setInterrupt(interrupt_);
  aig_ = &aig;
  uid_ = aig.uid();
}

bool SweepContext::bind(const aig::Aig& aig) {
  if (boundTo(aig)) return false;
  if (solver_) ++counters_.rebinds;
  rebuild(aig);
  pairFacts_.clear();
  return true;
}

void SweepContext::rebindRemapped(
    const aig::Aig& newMgr,
    std::span<const std::pair<aig::NodeId, aig::Lit>> transferMap) {
  // Dense old-NodeId → new-literal table (absent = dropped scratch node).
  aig::NodeId maxOld = 0;
  for (const auto& [n, l] : transferMap) maxOld = std::max(maxOld, n);
  constexpr std::uint32_t kAbsent = 0xffffffffu;
  std::vector<std::uint32_t> newRaw(static_cast<std::size_t>(maxOld) + 1,
                                    kAbsent);
  // The constant node is 0 in every manager but rarely appears in the
  // transfer map (strashed AND fanins are never constant) — seed it so
  // proven constant-equivalence facts survive the compaction.
  newRaw[0] = aig::kFalse.raw();
  for (const auto& [n, l] : transferMap) newRaw[n] = l.raw();

  std::unordered_map<std::uint64_t, bool> remapped;
  remapped.reserve(pairFacts_.size());
  for (const auto& [key, proven] : pairFacts_) {
    const aig::Lit a = aig::Lit::fromRaw(static_cast<std::uint32_t>(key >> 32));
    const aig::Lit b = aig::Lit::fromRaw(static_cast<std::uint32_t>(key));
    if (a.node() > maxOld || b.node() > maxOld) continue;
    const std::uint32_t ra = newRaw[a.node()];
    const std::uint32_t rb = newRaw[b.node()];
    if (ra == kAbsent || rb == kAbsent) continue;
    const aig::Lit na = aig::Lit::fromRaw(ra) ^ a.negated();
    const aig::Lit nb = aig::Lit::fromRaw(rb) ^ b.negated();
    if (na.node() == nb.node()) continue;  // re-strash already merged them
    remapped.emplace(pairKey(na, nb), proven);
  }

  ++counters_.remaps;
  rebuild(newMgr);
  pairFacts_ = std::move(remapped);
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

// ----- pair cache ------------------------------------------------------

std::uint64_t SweepContext::pairKey(aig::Lit a, aig::Lit b) {
  // Symmetric, complement-normalized: order by node id, then complement
  // both sides so the first literal is positive. "a ≡ b" and "¬a ≡ ¬b"
  // (and both argument orders) land on the same key.
  if (a.node() > b.node()) std::swap(a, b);
  if (a.negated()) {
    a = !a;
    b = !b;
  }
  return (static_cast<std::uint64_t>(a.raw()) << 32) | b.raw();
}

SweepContext::PairFact SweepContext::lookupPair(aig::Lit a, aig::Lit b) {
  ++counters_.lookups;
  const auto it = pairFacts_.find(pairKey(a, b));
  if (it == pairFacts_.end()) return PairFact::Unknown;
  if (it->second) {
    ++counters_.hitsProven;
    return PairFact::Proven;
  }
  ++counters_.hitsRefuted;
  return PairFact::Refuted;
}

void SweepContext::recordProven(aig::Lit a, aig::Lit b) {
  pairFacts_[pairKey(a, b)] = true;
}

void SweepContext::recordRefuted(aig::Lit a, aig::Lit b) {
  pairFacts_[pairKey(a, b)] = false;
}

void SweepContext::noteOdcOutcome(std::size_t attempts,
                                  std::size_t accepted) {
  if (attempts == 0) return;
  const double hit = accepted > 0 ? 1.0 : 0.0;
  odcAcceptEwma_ =
      odcSamples_ == 0 ? hit : 0.75 * odcAcceptEwma_ + 0.25 * hit;
  ++odcSamples_;
}

bool SweepContext::shouldAttemptOdc() {
  if (odcSamples_ < 4 || odcAcceptEwma_ >= 0.05) return true;
  return (++odcProbeTick_ & 15u) == 0;  // periodic re-probe
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
  stats.add("sweep.cache_lookups",
            static_cast<std::int64_t>(counters_.lookups));
  stats.add("sweep.cache_hits_proven",
            static_cast<std::int64_t>(counters_.hitsProven));
  stats.add("sweep.cache_hits_refuted",
            static_cast<std::int64_t>(counters_.hitsRefuted));
  stats.add("sweep.session_rebinds",
            static_cast<std::int64_t>(counters_.rebinds));
  stats.add("sweep.cache_remaps",
            static_cast<std::int64_t>(counters_.remaps));
  // Historical name from when two engines split the queries; perfbench's
  // sat.circuit_share still reads it.
  stats.add("sat.backend.circuit_wins",
            static_cast<std::int64_t>(counters_.queries));
}

}  // namespace cbq::sweep
