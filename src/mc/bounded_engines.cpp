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

/// Induction depth beyond which k-induction gives up (Unknown).
constexpr int kMaxInductionDepth = 64;

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
      : Session("bmc"), opts_(opts), unroller_(net, solver_) {
    solver_.setInterrupt(interrupt());
    unroller_.assertInit();
  }

 protected:
  Progress doResume(const portfolio::Budget& bud) override {
    for (;;) {
      if (k_ > opts_.maxDepth)  // bounded method: clean up to maxDepth
        return report(Verdict::Unknown, true, k_, opts_.maxDepth);
      if (bud.exhausted()) return report(Verdict::Unknown, false, k_);
      CBQ_OBS_SPAN("engine", "bmc-bound");
      unroller_.ensureFrame(k_);
      const sat::Lit assumptions[] = {unroller_.badLit(k_)};
      res_.stats.add("bmc.solves");
      const sat::Status st = solver_.solve(assumptions);
      if (st == sat::Status::Sat) {
        res_.cex = traceFromModel(unroller_, k_);
        return report(Verdict::Unsafe, true, k_);
      }
      if (st == sat::Status::Undef)  // interrupted mid-solve: retry k_
        return report(Verdict::Unknown, false, k_);
      advanced_ = true;
      ++k_;
    }
  }

  void exportLive(obs::Metrics& stats) const override {
    stats.set("bmc.conflicts", static_cast<double>(solver_.conflicts()));
    sat::exportEffort(stats, solver_);
  }

 private:
  BmcOptions opts_;
  sat::Solver solver_;
  Unroller unroller_;
  int k_ = 0;  ///< next depth to check; every shallower one is clean
};

class KInductionSession final : public Session {
 public:
  explicit KInductionSession(const Network& net)
      : Session("k-induction"), net_(&net), base_(net, baseSolver_) {
    baseSolver_.setInterrupt(interrupt());
    base_.assertInit();
  }

 protected:
  Progress doResume(const portfolio::Budget& bud) override {
    for (;;) {
      // res_.steps is the last k whose check started.
      if (k_ > kMaxInductionDepth)
        return report(Verdict::Unknown, true, k_, res_.steps);
      if (bud.exhausted())
        return report(Verdict::Unknown, false, k_, res_.steps);
      res_.steps = k_;

      if (!baseDone_) {
        // --- base: a counterexample of length k? ---------------------
        CBQ_OBS_SPAN("engine", "ind-base");
        base_.ensureFrame(k_);
        const sat::Lit baseAssumptions[] = {base_.badLit(k_)};
        res_.stats.add("ind.base_solves");
        const sat::Status baseSt = baseSolver_.solve(baseAssumptions);
        if (baseSt == sat::Status::Undef)  // interrupted: retry k_
          return report(Verdict::Unknown, false, k_);
        if (baseSt == sat::Status::Sat) {
          Trace t;
          for (int j = 0; j <= k_; ++j)
            t.inputs.push_back(base_.modelInputs(j));
          res_.cex = std::move(t);
          return report(Verdict::Unsafe, true, k_);
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
        stepSolver_->setInterrupt(interrupt());
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
        return report(Verdict::Unknown, false, k_);
      // The step check concluded: account its effort exactly once per k.
      sat::exportEffort(res_.stats, *stepSolver_);
      if (stepSt == sat::Status::Unsat)
        return report(Verdict::Safe, true, k_);
      advanced_ = true;
      baseDone_ = false;
      ++k_;
    }
  }

  /// The base solver's effort; concluded step solvers are already in
  /// res_.stats.
  void exportLive(obs::Metrics& stats) const override {
    sat::exportEffort(stats, baseSolver_);
  }

 private:
  const Network* net_;
  sat::Solver baseSolver_;
  Unroller base_;
  std::unique_ptr<sat::Solver> stepSolver_;  ///< per-k, survives pauses
  std::unique_ptr<Unroller> step_;
  int stepK_ = -1;  ///< k the step solver is built for
  int k_ = 0;
  bool baseDone_ = false;  ///< base check of k_ passed; step check next
};

}  // namespace

std::unique_ptr<Session> Bmc::start(const Network& net) const {
  return std::make_unique<BmcSession>(net, opts_);
}

std::unique_ptr<Session> KInduction::start(const Network& net) const {
  return std::make_unique<KInductionSession>(net);
}

}  // namespace cbq::mc
