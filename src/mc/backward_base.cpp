#include "mc/backward_base.hpp"

#include <utility>

#include "audit/audit.hpp"
#include "obs/tracer.hpp"
#include "sat/circuit_solver.hpp"
#include "sweep/signatures.hpp"

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
  std::vector<bool> state = net.init;  // per latch

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
    for (std::size_t i = 0; i < net.numLatches(); ++i) {
      const VarId v = net.stateVars[i];
      if (!archive.hasPi(v)) continue;
      assumptions.push_back(Lit(archive.piNodeOf(v), false) ^ !state[i]);
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

    if (t < d) state = net.step(state, inputs);
  }
  sat::exportEffort(stats, solver);
  return trace;
}

}  // namespace

BackwardReachSession::BackwardReachSession(const Network& net,
                                           std::string engineName,
                                           InputEliminator eliminate)
    : Session(std::move(engineName)),
      net_(&net),
      eliminate_(std::move(eliminate)) {
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
  // carries the fixpoint and collapse implications past the truth-table
  // bound (one huge reached-set cone, two queries per iteration). Keeping
  // them apart keeps the reached-set learnt gates and activities out of
  // the compare-point searches. Their interrupts poll the budget of the
  // resume in progress.
  session_.setInterrupt(interrupt());
  fixSession_.setInterrupt(interrupt());

  // Archive manager: frontier history for counterexample reconstruction.
  auto movedA = archive_.transferFrom(net.aig, roots);
  archNext_.assign(movedA.begin(), movedA.end() - 1);
  archBad_ = movedA.back();

  initDense_ = net.initAssignmentDense();
}

void BackwardReachSession::exportLive(obs::Metrics& stats) const {
  session_.exportStats(stats);
  fixSession_.exportStats(stats);
  stats.high("mem.aig_peak_nodes", static_cast<double>(mgr_.numNodes()));
}

void BackwardReachSession::commitFrontier(Lit pre, bool collapse) {
  frontier_ = pre;
  // pre ⇒ reached just failed; if reached ⇒ pre holds, the union is pre
  // itself. Otherwise (or when the query was interrupted) the reached set
  // is the plain disjunction.
  if (collapse) {
    reached_ = pre;
    res_.stats.add("reach.reached_collapses");
  } else {
    reached_ = mgr_.mkOr(reached_, pre);
  }
  const Lit fr[] = {frontier_};
  frontiersArch_.push_back(archive_.transferFrom(mgr_, fr).front());
  res_.stats.high("reach.max_frontier_cone",
                  static_cast<double>(mgr_.coneSize(fr)));
  advanced_ = true;
}

void BackwardReachSession::compact() {
  CBQ_OBS_SPAN("engine", "compact");
  std::vector<Lit> live{reached_, frontier_, badL_};
  live.insert(live.end(), nextL_.begin(), nextL_.end());
  // Re-strash every live cone into a fresh manager. The sweep session
  // rebinds to it here, keeping its counterexample bank (keyed by VarId);
  // the fixpoint session rebinds on its next SAT query.
  aig::Aig fresh;
  auto mv = fresh.transferFrom(mgr_, live);
  reached_ = mv[0];
  frontier_ = mv[1];
  badL_ = mv[2];
  for (std::size_t i = 0; i < nextL_.size(); ++i) nextL_[i] = mv[3 + i];
  mgr_ = std::move(fresh);
  subst_.clear();
  for (std::size_t i = 0; i < net_->stateVars.size(); ++i)
    subst_.emplace_back(net_->stateVars[i], nextL_[i]);
  session_.bind(mgr_);
  // The compacted manager plus the sweep session's rebuilt solver — a
  // stale node reference here would poison every later query.
  CBQ_AUDIT_CHECK("reach.compact", audit::auditAig(mgr_));
  CBQ_AUDIT_CHECK("reach.compact.session",
                  audit::auditSweepContext(session_, mgr_));
  res_.stats.add("reach.compactions");
}

Progress BackwardReachSession::doResume(const portfolio::Budget& budget) {
  Progress p = run(budget);
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
  for (;;) {
    if (bud.exhausted()) return report(Verdict::Unknown, false, iter_);
    switch (phase_) {
      case Phase::Init: {
        CBQ_OBS_SPAN("engine", "init");
        // Frontier 0: B = ∃i . bad(s, i).
        PreImageRequest req{&mgr_, badL_, net_, &res_.stats, &bud,
                            &session_};
        const auto b0 = eliminate_(req);
        if (!b0) {
          if (bud.exhausted())  // interrupted: retry next resume
            return report(Verdict::Unknown, false, iter_);
          return report(Verdict::Unknown, true, iter_);
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
        const Lit rr[] = {reached_};
        const std::size_t sz = mgr_.coneSize(rr);
        res_.stats.high("reach.max_reached_cone", static_cast<double>(sz));
        if (sz > kHardConeLimit || bud.nodesExceeded(sz))
          return report(Verdict::Unknown, true, iter_);
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
          if (bud.exhausted())
            return report(Verdict::Unknown, false, iter_);
          return report(Verdict::Unknown, true, iter_);
        }
        pre_ = *q;
        phase_ = Phase::Fix;
        break;
      }
      case Phase::Fix: {
        {
          CBQ_OBS_SPAN("engine", "fixpoint");
          // Fixpoint: every pre-image state already reached? Then the
          // collapse query: does the pre-image subsume the reached set?
          // On a small support both are word loops over one exhaustive
          // arena of the {pre, reached} cone; otherwise they go to their
          // own SAT session (fixSession_), whose reached-set learnt gates
          // and activities stay apart from the merge/DC compare points.
          const Lit fpRoots[] = {pre_, reached_};
          res_.stats.add("reach.fixpoint_checks");
          bool collapse = false;
          if (const auto tables =
                  sweep::Signatures::truthTables(mgr_, fpRoots)) {
            CBQ_AUDIT_CHECK("reach.fixpoint.signatures",
                            audit::auditSignatures(*tables));
            res_.stats.add("reach.fixpoint_sim_proofs");
            if (tables->impliesOnAll(pre_, reached_))
              return report(Verdict::Safe, true, iter_);
            collapse = tables->impliesOnAll(reached_, pre_);
          } else {
            fixSession_.bind(mgr_);
            fixSession_.focusOn(fpRoots);
            const sat::Verdict fp = fixSession_.checkImplies(pre_, reached_);
            if (fp == sat::Verdict::Holds)
              return report(Verdict::Safe, true, iter_);
            if (fp == sat::Verdict::Unknown)  // interrupted mid-solve: retry
              return report(Verdict::Unknown, false, iter_);
            collapse = fixSession_.checkImplies(reached_, pre_) ==
                       sat::Verdict::Holds;
          }
          commitFrontier(pre_, collapse);
        }
        // Compaction runs outside the fixpoint span: engine/compact is
        // its sibling, not a share of it.
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
        return report(Verdict::Unsafe, true, iter_);
      }
    }
  }
}

}  // namespace cbq::mc::detail
