#pragma once
// Sequential circuit model for unbounded model checking.
//
// A Network is a set of latches with next-state functions, a set of free
// primary inputs, a constant initial state, and a "bad" condition — the
// complement of the invariant property P, evaluated over current state and
// inputs. Backward reachability (§3 of the paper) starts from `bad` and
// iterates pre-images until a fixpoint or an initial-state intersection.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "util/var_table.hpp"

namespace cbq::mc {

struct Network {
  aig::Aig aig;                        ///< owns every cone below
  std::string name;                    ///< benchmark instance label
  std::vector<aig::VarId> stateVars;   ///< current-state variable per latch
  std::vector<aig::VarId> inputVars;   ///< free primary inputs
  std::vector<aig::Lit> next;          ///< next-state function per latch
  std::vector<bool> init;              ///< initial value per latch
  aig::Lit bad = aig::kFalse;          ///< violation condition (state+input)

  [[nodiscard]] std::size_t numLatches() const { return stateVars.size(); }
  [[nodiscard]] std::size_t numInputs() const { return inputVars.size(); }

  /// One past the largest state/input VarId — the size a dense
  /// per-variable table needs to cover every network variable.
  [[nodiscard]] std::size_t varBound() const {
    std::size_t bound = 0;
    for (const aig::VarId v : stateVars)
      bound = std::max(bound, static_cast<std::size_t>(v) + 1);
    for (const aig::VarId v : inputVars)
      bound = std::max(bound, static_cast<std::size_t>(v) + 1);
    return bound;
  }

  /// The initial state as a dense assignment indexed directly by VarId
  /// (state variables carry their `init` value, everything else false).
  /// Sized by varBound() so the engines' replay/init paths can write
  /// per-step input values in place instead of rebuilding a hash map.
  [[nodiscard]] std::vector<bool> initAssignmentDense() const {
    std::vector<bool> a(varBound(), false);
    for (std::size_t i = 0; i < stateVars.size(); ++i)
      a[stateVars[i]] = init[i];
    return a;
  }

  /// The latch values (per latch, parallel to stateVars) one transition
  /// after `state` under `inputs` (absent inputs read as false): one
  /// 64-way simulation of all next-state cones, every lane carrying the
  /// same pattern, so the shared logic is walked once per step.
  [[nodiscard]] std::vector<bool> step(
      const std::vector<bool>& state,
      const std::unordered_map<aig::VarId, bool>& inputs) const {
    util::VarTable<std::uint64_t> words;
    for (std::size_t i = 0; i < stateVars.size(); ++i)
      if (state[i]) words.set(stateVars[i], ~std::uint64_t{0});
    for (const auto& [v, value] : inputs)
      if (value) words.set(v, ~std::uint64_t{0});
    const auto out = aig.simulate(next, words);
    std::vector<bool> succ(out.size());
    for (std::size_t i = 0; i < out.size(); ++i) succ[i] = (out[i] & 1) != 0;
    return succ;
  }

  /// Structural well-formedness (sizes line up, vars are disjoint).
  [[nodiscard]] bool wellFormed() const {
    if (next.size() != stateVars.size() || init.size() != stateVars.size())
      return false;
    std::unordered_map<aig::VarId, int> seen;
    for (const aig::VarId v : stateVars)
      if (++seen[v] > 1) return false;
    for (const aig::VarId v : inputVars)
      if (++seen[v] > 1) return false;
    return true;
  }
};

/// Deep copy into a fresh manager (dead nodes are compacted away). The
/// manager's const reads (evaluate, coneSize, supportVars) stamp mutable
/// scratch arenas, so concurrent engine runs over one Network are a data
/// race — the portfolio runner hands each racing engine its own clone
/// instead.
[[nodiscard]] inline Network cloneNetwork(const Network& net) {
  Network out;
  out.name = net.name;
  out.stateVars = net.stateVars;
  out.inputVars = net.inputVars;
  out.init = net.init;
  std::vector<aig::Lit> roots(net.next.begin(), net.next.end());
  roots.push_back(net.bad);
  const auto moved = out.aig.transferFrom(net.aig, roots);
  out.next.assign(moved.begin(), moved.end() - 1);
  out.bad = moved.back();
  return out;
}

/// Incremental construction helper used by the benchmark families: keeps
/// the state/input variable bookkeeping in one place.
class NetworkBuilder {
 public:
  explicit NetworkBuilder(std::string name) { net_.name = std::move(name); }

  /// Declares a latch with its initial value; next-state set later.
  aig::Lit addLatch(bool initValue) {
    const aig::VarId v = nextVar_++;
    latchIndex_.emplace(v, net_.stateVars.size());
    net_.stateVars.push_back(v);
    net_.init.push_back(initValue);
    net_.next.push_back(aig::kFalse);
    return net_.aig.pi(v);
  }

  /// Declares a free primary input.
  aig::Lit addInput() {
    const aig::VarId v = nextVar_++;
    net_.inputVars.push_back(v);
    return net_.aig.pi(v);
  }

  /// Sets the next-state function of the `idx`-th latch.
  void setNext(std::size_t idx, aig::Lit f) { net_.next[idx] = f; }

  /// Sets the next-state function of the latch whose literal is `latch`.
  void setNextOf(aig::Lit latch, aig::Lit f) {
    const aig::VarId v = net_.aig.piVar(latch.node());
    const auto it = latchIndex_.find(v);
    assert(it != latchIndex_.end() && "literal is not a declared latch");
    if (it != latchIndex_.end()) net_.next[it->second] = f;
  }

  void setBad(aig::Lit bad) { net_.bad = bad; }

  [[nodiscard]] aig::Aig& aig() { return net_.aig; }

  Network finish() {
    assert(net_.wellFormed());
    return std::move(net_);
  }

 private:
  Network net_;
  aig::VarId nextVar_ = 0;
  /// var -> stateVars index, so setNextOf is O(1) instead of a linear
  /// scan per call (quadratic over wide generated families).
  std::unordered_map<aig::VarId, std::size_t> latchIndex_;
};

}  // namespace cbq::mc
