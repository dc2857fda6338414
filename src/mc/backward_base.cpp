#include "mc/backward_base.hpp"

#include <utility>

#include "audit/audit.hpp"
#include "obs/tracer.hpp"
#include "sat/circuit_solver.hpp"

namespace cbq::mc::detail {

namespace {

using aig::Lit;
using aig::VarId;

/// Rebuilds the trace for an Unsafe verdict. `frontiers[j]` (in the
/// archive manager) is Pre^j(∃i.bad); the initial state lies in
/// frontiers[d]. One small SAT query per step picks inputs that descend
/// the frontier chain; latches are stepped by simulation on the original
/// network. One circuit solver serves every step: the targets differ but
/// all live in the archive manager, and each query is phrased purely
/// through assumptions (target literal + current state values), so
/// learnt gates carry over for the whole descent. Each step focuses the
/// solver on its target, so a step costs the target's cone, not the
/// whole archive of d frontiers; state inputs outside that cone are
/// assigned but never propagated, and the next state is still simulated
/// on the original network.
Trace reconstructTrace(const Network& net, aig::Aig& archive,
                       const std::vector<Lit>& archNext, Lit archBad,
                       const std::vector<Lit>& frontiers, int d,
                       obs::Metrics& stats) {
  std::vector<aig::VarSub> subst;
  subst.reserve(net.stateVars.size());
  for (std::size_t i = 0; i < net.stateVars.size(); ++i)
    subst.emplace_back(net.stateVars[i], archNext[i]);

  Trace trace;
  std::unordered_map<VarId, bool> state = net.initAssignment();

  sat::CircuitSolver solver(archive);
  std::vector<Lit> assumptions;

  for (int t = 0; t <= d; ++t) {
    const Lit target =
        t < d ? archive.compose(frontiers[static_cast<std::size_t>(d - 1 - t)],
                                subst)
              : archBad;
    const Lit focus[] = {target};
    solver.focusOn(focus);

    assumptions.clear();
    assumptions.push_back(target);
    for (const auto& [v, value] : state) {
      if (!archive.hasPi(v)) continue;
      assumptions.push_back(Lit(archive.piNodeOf(v), false) ^ !value);
    }
    if (solver.solveLimited(assumptions, -1) != sat::Status::Sat) {
      // By construction this cannot happen; bail out with what we have —
      // the replay referee in the caller/test will flag the bad trace.
      break;
    }

    std::unordered_map<VarId, bool> inputs;
    for (const VarId v : net.inputVars)
      inputs.emplace(v, solver.modelOf(v));
    trace.inputs.push_back(inputs);

    if (t < d) {
      std::unordered_map<VarId, bool> a = state;
      for (const auto& [v, b] : inputs) a.insert_or_assign(v, b);
      std::unordered_map<VarId, bool> nextState;
      for (std::size_t i = 0; i < net.numLatches(); ++i)
        nextState.emplace(net.stateVars[i],
                          net.aig.evaluate(net.next[i], a));
      state = std::move(nextState);
    }
  }
  sat::exportEffort(stats, solver);
  return trace;
}

}  // namespace

BackwardReachSession::BackwardReachSession(
    const Network& net, std::string engineName, const ReachLimits& limits,
    InputEliminator eliminate)
    : net_(&net), limits_(limits), eliminate_(std::move(eliminate)) {
  res_.engine = std::move(engineName);

  // Working manager: next-state functions + bad cone.
  std::vector<Lit> roots(net.next.begin(), net.next.end());
  roots.push_back(net.bad);
  auto moved = mgr_.transferFrom(net.aig, roots);
  nextL_.assign(moved.begin(), moved.end() - 1);
  badL_ = moved.back();
  subst_.reserve(nextL_.size());
  for (std::size_t i = 0; i < net.stateVars.size(); ++i)
    subst_.emplace_back(net.stateVars[i], nextL_[i]);

  // The run's persistent sweep sessions, valid until the next compaction
  // retires the manager's node space. Two solvers for two very different
  // query shapes: `session_` carries the merge/DC compare-point checks
  // (small cofactor cones, thousands of queries), while `fixSession_`
  // carries the fixpoint implications (one huge reached-set cone, one
  // query per iteration). Keeping them apart keeps the reached-set
  // learnt gates and activities out of the compare-point searches. Their
  // interrupts poll whichever slice budget the current resume() is
  // running under.
  session_.setInterrupt(
      [this] { return curBud_ != nullptr && curBud_->exhausted(); });
  fixSession_.setInterrupt(
      [this] { return curBud_ != nullptr && curBud_->exhausted(); });

  // Archive manager: frontier history for counterexample reconstruction.
  auto movedA = archive_.transferFrom(net.aig, roots);
  archNext_.assign(movedA.begin(), movedA.end() - 1);
  archBad_ = movedA.back();

  initDense_ = net.initAssignmentDense();
}

Progress BackwardReachSession::snapshot(Verdict v, bool done) {
  Progress p;
  p.done = done;
  p.result = res_;
  p.result.verdict = v;
  p.result.steps = iter_;
  session_.exportStats(p.result.stats);
  fixSession_.exportStats(p.result.stats);
  p.bound = iter_;
  p.advanced = committedThisSlice_ > 0;
  p.effort =
      static_cast<std::uint64_t>(p.result.stats.count("sat.conflicts") +
                                 p.result.stats.count("sat.decisions") +
                                 p.result.stats.count("sat.propagations"));
  p.result.stats.high("mem.aig_peak_nodes",
                      static_cast<double>(mgr_.numNodes()));
  return p;
}

void BackwardReachSession::commitFrontier(Lit pre) {
  frontier_ = pre;
  // pre ⇒ reached just failed; if reached ⇒ pre holds, the union is pre
  // itself. fixSession_ is still focused on {pre, reached}. Fails or an
  // interrupted query keeps the plain disjunction.
  if (fixSession_.checkImplies(reached_, pre) == sat::Verdict::Holds) {
    reached_ = pre;
    res_.stats.add("reach.reached_collapses");
  } else {
    reached_ = mgr_.mkOr(reached_, pre);
  }
  const Lit fr[] = {frontier_};
  frontiersArch_.push_back(archive_.transferFrom(mgr_, fr).front());
  res_.stats.high("reach.max_frontier_cone",
                  static_cast<double>(mgr_.coneSize(fr)));
  ++committedThisSlice_;
}

void BackwardReachSession::compact() {
  CBQ_OBS_SPAN("engine", "compact");
  std::vector<Lit> live{reached_, frontier_, badL_};
  live.insert(live.end(), nextL_.begin(), nextL_.end());
  // Re-strash every live cone into a fresh manager. The transfer map
  // lets the sweep session carry its proven/refuted pair cache across
  // the NodeId change; the fixpoint session just rebinds (it records no
  // pair facts).
  aig::Aig fresh;
  std::vector<std::pair<aig::NodeId, Lit>> xfer;
  auto mv = fresh.transferFrom(mgr_, live, xfer);
  reached_ = mv[0];
  frontier_ = mv[1];
  badL_ = mv[2];
  for (std::size_t i = 0; i < nextL_.size(); ++i) nextL_[i] = mv[3 + i];
  mgr_ = std::move(fresh);
  subst_.clear();
  for (std::size_t i = 0; i < net_->stateVars.size(); ++i)
    subst_.emplace_back(net_->stateVars[i], nextL_[i]);
  session_.rebindRemapped(mgr_, xfer);
  // The compacted manager plus the sweep session's rebuilt solver — a
  // stale node reference here would poison every later query.
  CBQ_AUDIT_CHECK("reach.compact", audit::auditAig(mgr_));
  CBQ_AUDIT_CHECK("reach.compact.session",
                  audit::auditSweepContext(session_, mgr_));
  res_.stats.add("reach.compactions");
}

Progress BackwardReachSession::doResume(const portfolio::Budget& budget) {
  const auto bud = sliceBudget(budget, limits_.timeLimitSeconds);
  if (!bud) return snapshot(Verdict::Unknown, true);  // own limit spent
  curBud_ = &*bud;
  Progress p = run(*bud);
  curBud_ = nullptr;
  // Session pause: everything the next resume rebuilds from — the
  // manager and both persistent SAT sessions — must be coherent now.
  CBQ_AUDIT_CHECK("reach.pause", audit::auditAig(mgr_));
  CBQ_AUDIT_CHECK("reach.pause.session",
                  audit::auditSweepContext(session_, mgr_));
  CBQ_AUDIT_CHECK("reach.pause.fix-session",
                  audit::auditSweepContext(fixSession_, mgr_));
  return p;
}

Progress BackwardReachSession::run(const portfolio::Budget& bud) {
  committedThisSlice_ = 0;
  for (;;) {
    if (bud.exhausted()) return snapshot(Verdict::Unknown, false);
    switch (phase_) {
      case Phase::Init: {
        CBQ_OBS_SPAN("engine", "init");
        // Frontier 0: B = ∃i . bad(s, i).
        PreImageRequest req{&mgr_, badL_, net_, &res_.stats, &bud,
                            &session_};
        const auto b0 = eliminate_(req);
        if (!b0) {
          if (bud.exhausted())  // interrupted: retry next resume
            return snapshot(Verdict::Unknown, false);
          return snapshot(Verdict::Unknown, true);
        }
        frontier_ = *b0;
        reached_ = frontier_;
        {
          const Lit fr[] = {frontier_};
          frontiersArch_.push_back(archive_.transferFrom(mgr_, fr).front());
        }
        phase_ = mgr_.evaluate(frontier_, initDense_) ? Phase::Trace
                                                      : Phase::Guard;
        break;
      }
      case Phase::Guard: {
        if (iter_ >= limits_.maxIterations)
          return snapshot(Verdict::Unknown, true);
        const Lit rr[] = {reached_};
        const std::size_t sz = mgr_.coneSize(rr);
        res_.stats.high("reach.max_reached_cone", static_cast<double>(sz));
        if (sz > kHardConeLimit || bud.nodesExceeded(sz))
          return snapshot(Verdict::Unknown, true);
        ++iter_;
        phase_ = Phase::Pre;
        break;
      }
      case Phase::Pre: {
        CBQ_OBS_SPAN("engine", "pre-image");
        // Pre-image by substitution (§3 in-lining), then input
        // elimination. A pause retries from here: compose is strashed, so
        // the retry starts from identical inputs and stays deterministic.
        PreImageRequest req{&mgr_, mgr_.compose(frontier_, subst_), net_,
                            &res_.stats, &bud, &session_};
        const auto q = eliminate_(req);
        if (!q) {
          if (bud.exhausted()) return snapshot(Verdict::Unknown, false);
          return snapshot(Verdict::Unknown, true);
        }
        pre_ = *q;
        phase_ = Phase::Fix;
        break;
      }
      case Phase::Fix: {
        CBQ_OBS_SPAN("engine", "fixpoint");
        // Fixpoint: every pre-image state already reached? Runs in its
        // own session (fixSession_) so the reached-set checks keep their
        // own learnt gates and activities, apart from the small merge/DC
        // compare-point checks.
        fixSession_.bind(mgr_);
        const Lit fpRoots[] = {pre_, reached_};
        fixSession_.focusOn(fpRoots);
        res_.stats.add("reach.fixpoint_checks");
        const sat::Verdict fp = fixSession_.checkImplies(pre_, reached_);
        if (fp == sat::Verdict::Holds) return snapshot(Verdict::Safe, true);
        if (fp == sat::Verdict::Unknown)  // interrupted mid-solve: retry
          return snapshot(Verdict::Unknown, false);
        commitFrontier(pre_);
        if (mgr_.evaluate(frontier_, initDense_)) {
          phase_ = Phase::Trace;
        } else {
          compact();
          phase_ = Phase::Guard;
        }
        break;
      }
      case Phase::Trace: {
        CBQ_OBS_SPAN("engine", "trace");
        res_.cex = reconstructTrace(*net_, archive_, archNext_, archBad_,
                                    frontiersArch_, iter_, res_.stats);
        res_.stats.set("reach.iterations", iter_);
        return snapshot(Verdict::Unsafe, true);
      }
    }
  }
}

}  // namespace cbq::mc::detail
