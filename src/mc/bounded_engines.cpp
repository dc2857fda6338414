// Bounded model checking (Biere et al. [1]) and temporal induction
// (Sheeran et al. [5]) — the SAT-based methods §4 proposes to combine
// circuit quantification with. Both run as persistent sessions: the
// incremental solver and its time-frame expansion survive a budget
// pause, so the next resume() deepens from the last bound instead of
// re-unrolling from scratch.

#include "mc/engines.hpp"
#include "mc/unroller.hpp"
#include "obs/tracer.hpp"

namespace cbq::mc {

namespace {

/// Extracts a counterexample trace of length `depth+1` from the model of
/// an unrolled solver.
Trace traceFromModel(const Unroller& unroller, int depth) {
  Trace trace;
  for (int k = 0; k <= depth; ++k)
    trace.inputs.push_back(unroller.modelInputs(k));
  return trace;
}

class BmcSession final : public Session {
 public:
  BmcSession(const Network& net, const BmcOptions& opts)
      : net_(&net), opts_(opts), unroller_(net, solver_) {
    res_.engine = "bmc";
    solver_.setInterrupt(
        [this] { return curBud_ != nullptr && curBud_->exhausted(); });
    unroller_.assertInit();
  }

  [[nodiscard]] std::string name() const override { return res_.engine; }

 protected:
  Progress doResume(const portfolio::Budget& budget) override {
    const auto bud = sliceBudget(budget, opts_.timeLimitSeconds);
    if (!bud) return snapshot(Verdict::Unknown, true, lastClean());
    curBud_ = &*bud;
    Progress p = run(*bud);
    curBud_ = nullptr;
    return p;
  }

 private:
  /// Deepest depth proven clean (reported as steps while paused).
  [[nodiscard]] int lastClean() const { return k_; }

  Progress run(const portfolio::Budget& bud) {
    advanced_ = false;
    for (;;) {
      if (k_ > opts_.maxDepth)  // bounded method: clean up to maxDepth
        return snapshot(Verdict::Unknown, true, opts_.maxDepth);
      if (bud.exhausted())
        return snapshot(Verdict::Unknown, false, k_);
      CBQ_OBS_SPAN("engine", "bmc-bound");
      unroller_.ensureFrame(k_);
      const sat::Lit assumptions[] = {unroller_.badLit(k_)};
      res_.stats.add("bmc.solves");
      const sat::Status st = solver_.solve(assumptions);
      if (st == sat::Status::Sat) {
        res_.cex = traceFromModel(unroller_, k_);
        return snapshot(Verdict::Unsafe, true, k_);
      }
      if (st == sat::Status::Undef)  // interrupted mid-solve: retry k_
        return snapshot(Verdict::Unknown, false, k_);
      advanced_ = true;
      ++k_;
    }
  }

  Progress snapshot(Verdict v, bool done, int steps) {
    Progress p;
    p.done = done;
    p.result = res_;
    p.result.verdict = v;
    p.result.steps = steps;
    p.result.stats.set("bmc.conflicts",
                       static_cast<double>(solver_.conflicts()));
    sat::exportEffort(p.result.stats, solver_);
    p.bound = k_;
    p.advanced = advanced_;
    p.effort = solver_.conflicts() + solver_.decisions() +
               solver_.propagations();
    return p;
  }

  const Network* net_;
  BmcOptions opts_;
  CheckResult res_;
  sat::Solver solver_;
  Unroller unroller_;
  int k_ = 0;
  bool advanced_ = false;
  const portfolio::Budget* curBud_ = nullptr;
};

class KInductionSession final : public Session {
 public:
  KInductionSession(const Network& net, const InductionOptions& opts)
      : net_(&net), opts_(opts), base_(net, baseSolver_) {
    res_.engine = "k-induction";
    baseSolver_.setInterrupt(
        [this] { return curBud_ != nullptr && curBud_->exhausted(); });
    base_.assertInit();
  }

  [[nodiscard]] std::string name() const override { return res_.engine; }

 protected:
  Progress doResume(const portfolio::Budget& budget) override {
    const auto bud = sliceBudget(budget, opts_.timeLimitSeconds);
    if (!bud) return snapshot(Verdict::Unknown, true);
    curBud_ = &*bud;
    Progress p = run(*bud);
    curBud_ = nullptr;
    return p;
  }

 private:
  Progress run(const portfolio::Budget& bud) {
    advanced_ = false;
    for (;;) {
      if (k_ > opts_.maxK) return snapshot(Verdict::Unknown, true);
      if (bud.exhausted()) return snapshot(Verdict::Unknown, false);
      res_.steps = k_;

      if (!baseDone_) {
        // --- base: a counterexample of length k? ---------------------
        CBQ_OBS_SPAN("engine", "ind-base");
        base_.ensureFrame(k_);
        const sat::Lit baseAssumptions[] = {base_.badLit(k_)};
        res_.stats.add("ind.base_solves");
        const sat::Status baseSt = baseSolver_.solve(baseAssumptions);
        if (baseSt == sat::Status::Undef)  // interrupted: retry k_
          return snapshot(Verdict::Unknown, false);
        if (baseSt == sat::Status::Sat) {
          Trace t;
          for (int j = 0; j <= k_; ++j)
            t.inputs.push_back(base_.modelInputs(j));
          res_.cex = std::move(t);
          return snapshot(Verdict::Unsafe, true);
        }
        baseDone_ = true;
      }

      // --- step: ¬bad for k frames on any (simple) path ⇒ ¬bad at k+1?
      // Frames 0..k, no init, bad only at frame k, ¬bad at 0..k-1. The
      // step solver lives one k but SURVIVES budget pauses: an
      // interrupted step check resumes with its learned clauses and
      // saved phases intact, so even a step proof much longer than one
      // slice eventually completes.
      if (stepK_ != k_) {
        stepSolver_ = std::make_unique<sat::Solver>();
        stepSolver_->setInterrupt(
            [this] { return curBud_ != nullptr && curBud_->exhausted(); });
        step_ = std::make_unique<Unroller>(*net_, *stepSolver_);
        step_->ensureFrame(k_);
        for (int j = 0; j < k_; ++j)
          stepSolver_->addClause({!step_->badLit(j)});
        for (int i = 0; i < k_; ++i)
          for (int j = i + 1; j <= k_; ++j) step_->assertDistinct(i, j);
        stepK_ = k_;
      }
      CBQ_OBS_SPAN("engine", "ind-step");
      const sat::Lit stepAssumptions[] = {step_->badLit(k_)};
      res_.stats.add("ind.step_solves");
      const sat::Status stepSt = stepSolver_->solve(stepAssumptions);
      if (stepSt == sat::Status::Undef)  // interrupted: resume the solve
        return snapshot(Verdict::Unknown, false);
      // The step check concluded: account its effort exactly once per k.
      sat::exportEffort(res_.stats, *stepSolver_);
      stepEffort_ += stepSolver_->conflicts() + stepSolver_->decisions() +
                     stepSolver_->propagations();
      if (stepSt == sat::Status::Unsat) return snapshot(Verdict::Safe, true);
      advanced_ = true;
      baseDone_ = false;
      ++k_;
    }
  }

  Progress snapshot(Verdict v, bool done) {
    Progress p;
    p.done = done;
    p.result = res_;
    p.result.verdict = v;
    sat::exportEffort(p.result.stats, baseSolver_);
    p.bound = k_;
    p.advanced = advanced_;
    p.effort = stepEffort_ + baseSolver_.conflicts() +
               baseSolver_.decisions() + baseSolver_.propagations();
    return p;
  }

  const Network* net_;
  InductionOptions opts_;
  CheckResult res_;
  sat::Solver baseSolver_;
  Unroller base_;
  std::unique_ptr<sat::Solver> stepSolver_;  ///< per-k, survives pauses
  std::unique_ptr<Unroller> step_;
  int stepK_ = -1;  ///< k the step solver is built for
  int k_ = 0;
  bool baseDone_ = false;  ///< base check of k_ passed; step check next
  bool advanced_ = false;
  std::uint64_t stepEffort_ = 0;
  const portfolio::Budget* curBud_ = nullptr;
};

}  // namespace

std::unique_ptr<Session> Bmc::start(const Network& net) const {
  return std::make_unique<BmcSession>(net, opts_);
}

std::unique_ptr<Session> KInduction::start(const Network& net) const {
  return std::make_unique<KInductionSession>(net, opts_);
}

}  // namespace cbq::mc
