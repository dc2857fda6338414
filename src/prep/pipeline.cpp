#include "prep/pipeline.hpp"

#include <utility>

#include "audit/audit.hpp"
#include "obs/tracer.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace cbq::prep {

namespace {

/// Checks whether simplification already settled the verdict. The Unsafe
/// probe is opportunistic (one input vector — all false), but it is the
/// common endgame of constant propagation: a bad cone rewritten to a
/// function of the initial state alone.
std::optional<mc::Verdict> decideTrivial(const mc::Network& net) {
  if (net.bad == aig::kFalse) return mc::Verdict::Safe;
  if (net.aig.evaluate(net.bad, net.initAssignmentDense()))
    return mc::Verdict::Unsafe;
  return std::nullopt;
}

}  // namespace

PreparedProblem Pipeline::run(const mc::Network& net,
                              const portfolio::Budget& budget) const {
  CBQ_OBS_SPAN("prep", "pipeline");
  util::Timer timer;
  PreparedProblem out;
  out.latchesBefore = net.numLatches();
  out.inputsBefore = net.numInputs();
  out.andsBefore = net.aig.numAnds();
  if (!opts_.enabled) {
    out.seconds = timer.seconds();
    return out;  // identity: no clone, callers run on the original
  }

  // The current view of the problem: the original until the first pass
  // changes something (identity pipelines never copy the network).
  auto view = [&]() -> const mc::Network& { return out.problem(net); };
  auto interrupt = [&budget] { return budget.exhausted(); };

  struct PassSpec {
    const char* name;
    bool enabled;
    std::function<PassResult(const mc::Network&)> pass;
  };
  auto runPass = [&](const PassSpec& spec) -> bool {
    CBQ_OBS_SPAN("prep", spec.name);
    // Injection site: a pass blowing up must make the portfolio fall
    // back to checking the original network, not sink the problem.
    CBQ_FAULT_POINT("prep.pass");
    util::Timer passTimer;
    PassStats ps;
    ps.pass = spec.name;
    ps.latchesBefore = view().numLatches();
    ps.inputsBefore = view().numInputs();
    ps.andsBefore = view().aig.numAnds();

    PassResult r = spec.pass(view());
    const double elapsed = passTimer.seconds();
    out.stats.observe(std::string("prep.") + spec.name + ".seconds", elapsed);
    if (!r.changed) return false;

    out.reduced = std::move(r.net);
    out.identity = false;
    // A pass committed a rewritten network: audit it before anything
    // downstream (another pass or an engine) consumes the corruption.
    CBQ_AUDIT_CHECK(std::string("prep.") + spec.name,
                    audit::auditNetwork(out.reduced));
    if (r.transform) out.stack.push_back(std::move(r.transform));
    ps.latchesAfter = out.reduced.numLatches();
    ps.inputsAfter = out.reduced.numInputs();
    ps.andsAfter = out.reduced.aig.numAnds();
    ps.seconds = elapsed;
    out.passes.push_back(std::move(ps));
    return true;
  };

  // A pass is "dirty" while the network has changed since it last ran;
  // clean passes are skipped, so each pass runs at most once after the
  // last change instead of every round (the expensive case is the
  // terminating round re-running the full sweeper just to discard it).
  const PassSpec specs[] = {
      {"coi", opts_.coi,
       [&](const mc::Network& n) {
         return coiReduction(n, &out.stats);
       }},
      {"const", opts_.constLatch,
       [&](const mc::Network& n) {
         return constLatchSweep(n, &out.stats);
       }},
      {"sweep", opts_.structural,
       [&](const mc::Network& n) {
         return structuralSimplify(n, opts_.sweepSatBudget,
                                   opts_.structuralMaxAnds,
                                   opts_.structuralMinShrink, interrupt,
                                   &out.stats);
       }},
      {"latchcorr", opts_.latchCorr,
       [&](const mc::Network& n) {
         return latchCorrespondence(n, opts_.latchCorrMaxAnds,
                                    opts_.latchCorrGrowth, interrupt,
                                    &out.stats);
       }},
  };
  bool dirty[4] = {true, true, true, true};

  out.decided = decideTrivial(view());
  for (int round = 0; round < opts_.maxRounds && !out.decided; ++round) {
    bool changed = false;
    for (std::size_t i = 0; i < 4; ++i) {
      if (!specs[i].enabled || !dirty[i]) continue;
      if (budget.exhausted()) break;  // ship what is committed so far
      dirty[i] = false;
      if (runPass(specs[i])) {
        changed = true;
        for (std::size_t j = 0; j < 4; ++j)
          if (j != i) dirty[j] = true;
      }
      if ((out.decided = decideTrivial(view())).has_value()) break;
    }
    if (out.decided.has_value() || !changed || budget.exhausted()) break;
  }

  if (out.decided == mc::Verdict::Unsafe) {
    // A step-0 violation: one all-default step, lifted so the trace is a
    // complete original-variable assignment.
    out.decidedCex = out.lifter().lift(mc::Trace{});
    out.stats.add("prep.decided_unsafe");
  } else if (out.decided == mc::Verdict::Safe) {
    out.stats.add("prep.decided_safe");
  }

  out.seconds = timer.seconds();
  return out;
}

bool demoteUnreplayableCex(const mc::Network& original, mc::CheckResult& res,
                           bool requireTrace) {
  if (res.verdict != mc::Verdict::Unsafe) return false;
  if (res.cex.has_value() ? mc::replayHitsBad(original, *res.cex)
                          : !requireTrace)
    return false;
  res.verdict = mc::Verdict::Unknown;
  res.cex.reset();
  res.stats.add("prep.lift_replay_failures");
  return true;
}

}  // namespace cbq::prep
