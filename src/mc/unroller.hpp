#pragma once
// Time-frame expansion of a Network into a SAT solver.
//
// Used by BMC and k-induction (trace reconstruction in the backward
// engines runs on sat::CircuitSolver over the frontier archive). Frames are
// encoded eagerly one at a time, so there is no deep recursion across
// frames: frame k's state literals are the next-state literals computed in
// frame k-1.

#include <unordered_map>
#include <vector>

#include "cnf/aig_cnf.hpp"
#include "mc/network.hpp"
#include "sat/solver.hpp"

namespace cbq::mc {

class Unroller {
 public:
  Unroller(const Network& net, sat::Solver& solver)
      : net_(&net), solver_(&solver) {}

  /// Makes frames 0..k available.
  void ensureFrame(int k);

  [[nodiscard]] int numFrames() const {
    return static_cast<int>(frames_.size());
  }

  /// SAT literal of latch `i`'s current state at frame `k`.
  [[nodiscard]] sat::Lit stateLit(int k, std::size_t i) const {
    return frames_[static_cast<std::size_t>(k)].state[i];
  }
  /// SAT literal of input variable `v` at frame `k`.
  [[nodiscard]] sat::Lit inputLit(int k, aig::VarId v) const {
    return frames_[static_cast<std::size_t>(k)].inputs.at(v);
  }
  /// SAT literal of the bad condition at frame `k`.
  [[nodiscard]] sat::Lit badLit(int k) const {
    return frames_[static_cast<std::size_t>(k)].bad;
  }

  /// Adds unit clauses fixing frame 0 to the initial state.
  void assertInit();

  /// Input assignment of frame `k` extracted from the current model.
  [[nodiscard]] std::unordered_map<aig::VarId, bool> modelInputs(int k) const;

  /// Adds clauses forcing the state vectors of frames i and j to differ
  /// (simple-path / uniqueness constraint for k-induction).
  void assertDistinct(int i, int j);

 private:
  struct Frame {
    std::vector<sat::Lit> state;                      // per latch
    std::vector<sat::Lit> next;                       // per latch
    std::unordered_map<aig::VarId, sat::Lit> inputs;  // per input var
    sat::Lit bad = sat::kUndefLit;
  };

  /// Encodes the cone of `l` inside frame `k`, mapping state PIs to the
  /// frame's state literals and input PIs to (fresh) per-frame literals.
  sat::Lit encodeAt(aig::Lit l, Frame& frame);

  const Network* net_;
  sat::Solver* solver_;
  std::vector<Frame> frames_;
  std::unordered_map<aig::VarId, std::size_t> latchIndex_;
  bool latchIndexBuilt_ = false;
  sat::Lit constFalse_ = sat::kUndefLit;

  // Per-frame memo: AIG node -> SAT literal (positive phase).
  std::vector<std::unordered_map<aig::NodeId, sat::Lit>> frameMemo_;
};

}  // namespace cbq::mc
