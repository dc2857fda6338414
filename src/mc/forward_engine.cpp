// Forward reachability with circuit-based quantification — the post-image
// variant the paper's §1 alludes to. Image computation quantifies state
// AND input variables out of TR(s,i,s') ∧ F(s), the worst case for
// quantifier elimination, which is precisely why it makes a good stress
// test of the merge/optimization machinery. Runs as a persistent session:
// the working manager, onion rings, reached set and the run-wide sweep
// session survive a budget pause, and an interrupted image computation is
// retried from the same frontier on the next resume.

#include <algorithm>

#include "mc/engines.hpp"
#include "quant/quantifier.hpp"
#include "sat/circuit_solver.hpp"
#include "sweep/sweep_context.hpp"

namespace cbq::mc {

namespace {

using aig::Lit;
using aig::VarId;

struct ForwardModel {
  aig::Aig mgr;
  std::vector<Lit> next;        ///< δ_j(s, i) in mgr
  Lit bad = aig::kFalse;        ///< bad(s, i) in mgr
  Lit tr = aig::kFalse;         ///< ∧_j s'_j ↔ δ_j
  Lit initCube = aig::kTrue;    ///< I(s)
  std::vector<VarId> nsVars;    ///< fresh next-state variable ids
  std::vector<VarId> quantSet;  ///< state ∪ input variables
  std::vector<aig::VarSub> renameBack;  ///< s'_j -> pi(s_j)
};

void buildModel(const Network& net, ForwardModel& m) {
  std::vector<Lit> roots(net.next.begin(), net.next.end());
  roots.push_back(net.bad);
  auto moved = m.mgr.transferFrom(net.aig, roots);
  m.next.assign(moved.begin(), moved.end() - 1);
  m.bad = moved.back();

  VarId maxVar = 0;
  for (const VarId v : net.stateVars) maxVar = std::max(maxVar, v);
  for (const VarId v : net.inputVars) maxVar = std::max(maxVar, v);
  m.nsVars.resize(net.numLatches());

  std::vector<Lit> conjuncts;
  conjuncts.reserve(net.numLatches());
  for (std::size_t j = 0; j < net.numLatches(); ++j) {
    m.nsVars[j] = maxVar + 1 + static_cast<VarId>(j);
    conjuncts.push_back(m.mgr.mkXnor(m.mgr.pi(m.nsVars[j]), m.next[j]));
    m.renameBack.emplace_back(m.nsVars[j], m.mgr.pi(net.stateVars[j]));
  }
  m.tr = m.mgr.mkAndAll(conjuncts);

  for (std::size_t j = 0; j < net.numLatches(); ++j) {
    m.initCube = m.mgr.mkAnd(
        m.initCube, m.mgr.pi(net.stateVars[j]) ^ !net.init[j]);
  }

  m.quantSet.assign(net.stateVars.begin(), net.stateVars.end());
  m.quantSet.insert(m.quantSet.end(), net.inputVars.begin(),
                    net.inputVars.end());
}

/// Backward trace extraction over forward onion rings: pick a bad state
/// in the last ring, then step backwards ring by ring with one SAT query
/// per step (state of ring t, transition into the chosen successor).
/// One circuit solver serves every step; each query is phrased purely
/// through assumptions and focused on its root, so a step costs that
/// ring's cone, not every ring and scratch node in the manager.
std::optional<Trace> extractTrace(const Network& net, ForwardModel& m,
                                  const std::vector<Lit>& rings, int d) {
  sat::CircuitSolver solver(m.mgr);
  // 1. pick s_d |= rings[d] ∧ ∃i bad — solve rings[d] ∧ bad directly.
  std::unordered_map<VarId, bool> state;
  std::unordered_map<VarId, bool> finalInputs;
  {
    const Lit assumptions[] = {
        m.mgr.mkAnd(rings[static_cast<std::size_t>(d)], m.bad)};
    solver.focusOn(assumptions);
    if (solver.solveLimited(assumptions, -1) != sat::Status::Sat)
      return std::nullopt;
    for (const VarId v : net.stateVars) state.emplace(v, solver.modelOf(v));
    for (const VarId v : net.inputVars)
      finalInputs.emplace(v, solver.modelOf(v));
  }

  // 2. walk backwards: for t = d-1..0 find s_t ∈ rings[t], input i_t with
  //    δ(s_t, i_t) = s_{t+1}.
  std::vector<std::unordered_map<VarId, bool>> inputsRev{finalInputs};
  for (int t = d - 1; t >= 0; --t) {
    const Lit root[] = {m.mgr.mkAnd(rings[static_cast<std::size_t>(t)], m.tr)};
    solver.focusOn(root);
    std::vector<Lit> assumptions(std::begin(root), std::end(root));
    // Fix the successor (next-state variables) to s_{t+1}.
    for (std::size_t j = 0; j < net.numLatches(); ++j) {
      const Lit pi(m.mgr.piNodeOf(m.nsVars[j]), false);
      assumptions.push_back(pi ^ !state.at(net.stateVars[j]));
    }
    if (solver.solveLimited(assumptions, -1) != sat::Status::Sat)
      return std::nullopt;
    std::unordered_map<VarId, bool> stepInputs;
    for (const VarId v : net.inputVars)
      stepInputs.emplace(v, solver.modelOf(v));
    inputsRev.push_back(stepInputs);
    std::unordered_map<VarId, bool> prevState;
    for (const VarId v : net.stateVars)
      prevState.emplace(v, solver.modelOf(v));
    state = std::move(prevState);
  }

  Trace trace;
  for (auto it = inputsRev.rbegin(); it != inputsRev.rend(); ++it)
    trace.inputs.push_back(*it);
  return trace;
}

class ForwardReachSession final : public Session {
 public:
  ForwardReachSession(const Network& net,
                      const CircuitQuantForwardOptions& opts)
      : net_(&net), opts_(opts) {
    res_.engine = "cbq-fwd";
    buildModel(net, m_);
    rings_.assign(1, m_.initCube);  // onion rings R_0, R_1, ...
    reached_ = m_.initCube;
    frontier_ = m_.initCube;
    // Run-wide persistent sweep session for the bad-intersection and
    // fixpoint queries: the forward engine never compacts its manager, so
    // learnt gates over the ring/reached cones stay valid. Each query
    // focuses the solver on its own cone, keeping per-check cost bounded
    // by the live state sets rather than by the accumulated scratch.
    session_.setInterrupt(
        [this] { return curBud_ != nullptr && curBud_->exhausted(); });
    session_.bind(m_.mgr);
  }

  [[nodiscard]] std::string name() const override { return res_.engine; }

 protected:
  Progress doResume(const portfolio::Budget& budget) override {
    const auto bud = sliceBudget(budget, opts_.limits.timeLimitSeconds);
    if (!bud) return snapshot(Verdict::Unknown, true);
    curBud_ = &*bud;
    Progress p = run(*bud);
    curBud_ = nullptr;
    return p;
  }

 private:
  enum class Phase : std::uint8_t { Bad, Guard, Img, Fix };

  Progress run(const portfolio::Budget& bud) {
    committedThisSlice_ = 0;
    for (;;) {
      if (bud.exhausted()) return snapshot(Verdict::Unknown, false);
      switch (phase_) {
        case Phase::Bad: {
          const Lit q = m_.mgr.mkAnd(frontier_, m_.bad);
          const Lit qRoots[] = {q};
          session_.focusOn(qRoots);
          const sat::Verdict sat = session_.checkSat(q);
          if (sat == sat::Verdict::Unknown)  // interrupted: retry
            return snapshot(Verdict::Unknown, false);
          if (sat == sat::Verdict::Holds) {
            res_.cex = extractTrace(*net_, m_, rings_, iter_);
            return snapshot(Verdict::Unsafe, true);
          }
          phase_ = Phase::Guard;
          break;
        }
        case Phase::Guard: {
          if (iter_ >= opts_.limits.maxIterations)
            return snapshot(Verdict::Unknown, true);
          const Lit rr[] = {reached_};
          const std::size_t sz = m_.mgr.coneSize(rr);
          res_.stats.high("reach.max_reached_cone",
                          static_cast<double>(sz));
          if (sz > kHardConeLimit || bud.nodesExceeded(sz))
            return snapshot(Verdict::Unknown, true);
          ++iter_;
          phase_ = Phase::Img;
          break;
        }
        case Phase::Img: {
          // Image: ∃(s, i) . TR ∧ F — both variable classes at once (§1).
          // One sweep session per image computation, apart from the run
          // session: every sweep and DC check of the image shares its
          // solver and pair cache, and it retires with the image's
          // scratch cones. Measured against a throwaway session per
          // sweep/DC call on the generated suite (`cbq bench --engine
          // cbq-fwd --timeout 10`, best of 2 runs, 4-vCPU VM), it solves
          // 64-65 of 70 instances instead of 63 (haystack8_safe finishes
          // near the limit), and the 63 both solve take 9.7-11.3 s
          // instead of 14.8 s with identical verdicts and steps.
          //
          // The partially-quantified image survives a pause: variables
          // already eliminated stay eliminated (imgWork_/imgVars_), so a
          // session sliced finer than one whole image still converges
          // instead of restarting the quantification every slice.
          if (!imgActive_) {
            imgWork_ = m_.mgr.mkAnd(m_.tr, frontier_);
            imgVars_ = m_.quantSet;
            imgActive_ = true;
          }
          sweep::SweepContext imgCtx;
          imgCtx.setInterrupt([&bud] { return bud.exhausted(); });
          quant::Quantifier q(m_.mgr, opts_.quant, imgCtx);
          auto r = q.quantifyAll(imgWork_, imgVars_);
          imgWork_ = r.f;
          imgVars_ = r.residual;
          bool interrupted = bud.exhausted();  // quantifyAll stopped early
          while (!interrupted && !imgVars_.empty()) {
            // Forced expansion of abort survivors: no growth bound.
            imgWork_ = q.quantifyVarForced(imgWork_, imgVars_.front());
            imgVars_.erase(imgVars_.begin());
            interrupted = bud.exhausted();
          }
          res_.stats.merge(q.stats());
          imgCtx.exportStats(res_.stats);
          if (interrupted && !imgVars_.empty())  // pause mid-image
            return snapshot(Verdict::Unknown, false);
          img_ = m_.mgr.compose(imgWork_, m_.renameBack);
          imgActive_ = false;
          phase_ = Phase::Fix;
          break;
        }
        case Phase::Fix: {
          const Lit fpRoots[] = {img_, reached_};
          session_.focusOn(fpRoots);
          res_.stats.add("reach.fixpoint_checks");
          const sat::Verdict fp = session_.checkImplies(img_, reached_);
          if (fp == sat::Verdict::Holds)
            return snapshot(Verdict::Safe, true);
          if (fp == sat::Verdict::Unknown)  // interrupted: retry
            return snapshot(Verdict::Unknown, false);
          frontier_ = img_;
          reached_ = m_.mgr.mkOr(reached_, img_);
          rings_.push_back(frontier_);
          {
            const Lit fr[] = {frontier_};
            res_.stats.high("reach.max_frontier_cone",
                            static_cast<double>(m_.mgr.coneSize(fr)));
          }
          ++committedThisSlice_;
          phase_ = Phase::Bad;
          break;
        }
      }
    }
  }

  Progress snapshot(Verdict v, bool done) {
    Progress p;
    p.done = done;
    p.result = res_;
    p.result.verdict = v;
    p.result.steps = iter_;
    session_.exportStats(p.result.stats);
    p.bound = iter_;
    p.advanced = committedThisSlice_ > 0;
    {
      const Lit fr[] = {frontier_};
      p.frontierCone = m_.mgr.coneSize(fr);
    }
    p.effort =
        static_cast<std::uint64_t>(p.result.stats.count("sat.conflicts") +
                                   p.result.stats.count("sat.decisions") +
                                   p.result.stats.count("sat.propagations"));
    return p;
  }

  const Network* net_;
  CircuitQuantForwardOptions opts_;
  CheckResult res_;
  ForwardModel m_;
  sweep::SweepContext session_;
  std::vector<Lit> rings_;
  Lit reached_ = aig::kFalse;
  Lit frontier_ = aig::kFalse;
  Lit img_ = aig::kFalse;      ///< valid in Phase::Fix
  Lit imgWork_ = aig::kFalse;  ///< in-flight image, partially quantified
  std::vector<VarId> imgVars_;  ///< variables still to eliminate from it
  bool imgActive_ = false;
  int iter_ = 0;
  int committedThisSlice_ = 0;
  Phase phase_ = Phase::Bad;
  const portfolio::Budget* curBud_ = nullptr;
};

}  // namespace

std::unique_ptr<Session> CircuitQuantForwardReach::start(
    const Network& net) const {
  return std::make_unique<ForwardReachSession>(net, opts_);
}

}  // namespace cbq::mc
