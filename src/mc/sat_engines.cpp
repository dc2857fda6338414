// The three AIG-based backward engines (paper §3–§4) and the §4
// input-quantification preprocessing.

#include <algorithm>

#include "mc/backward_base.hpp"
#include "mc/engines.hpp"
#include "sat/circuit_solver.hpp"

namespace cbq::mc {

namespace {

using aig::Lit;
using aig::VarId;

/// Pause/retry continuation for an input elimination. A budget pause
/// inside an eliminator returns nullopt; the session retries the same
/// request on its next resume (same formula — the pre-image compose is
/// strashed and nothing else ran in between), and the carry lets the
/// retry continue from the work already done instead of starting the
/// elimination over (which could otherwise never fit in one slice).
struct EliminateCarry {
  bool active = false;
  Lit formula = aig::kFalse;  ///< request this continuation belongs to
  Lit work = aig::kFalse;     ///< partially eliminated formula / cube union
  std::vector<VarId> vars;    ///< variables still to eliminate (quant)
  int count = 0;              ///< enumerations so far (all-SAT)
  /// The request overflowed its enumeration bound: a permanent fact about
  /// this formula. Remembered so a retry (the session cannot tell an
  /// overflow whose slice also expired from a plain pause) fails in O(1)
  /// instead of re-running the doomed enumeration every slice.
  bool overflowed = false;
};

/// All-solution SAT elimination of `vars` from `f` with Ganai-style
/// circuit cofactoring: every satisfying assignment is generalized by
/// cofactoring the formula against the model's *input* values, yielding a
/// whole state-set circuit per enumeration step. Polls `budget` per
/// enumeration (and inside each solve) so a portfolio cancel lands fast.
/// A pause stores the cube union in `carry`; the retry blocks it with one
/// ¬union clause and enumerates only the uncovered remainder.
std::optional<Lit> allSatEliminate(aig::Aig& mgr, Lit f,
                                   std::span<const VarId> vars,
                                   int maxEnum, obs::Metrics& stats,
                                   const portfolio::Budget& budget,
                                   EliminateCarry& carry) {
  // Restrict to variables actually present.
  std::vector<VarId> live;
  {
    const auto support = mgr.supportVars(f);
    for (const VarId v : vars)
      if (std::binary_search(support.begin(), support.end(), v))
        live.push_back(v);
  }
  if (live.empty() || f.isConstant()) return f;

  Lit result = aig::kFalse;
  int count = 0;
  if (carry.active && carry.formula == f) {
    if (carry.overflowed) return std::nullopt;  // permanent; carry kept
    result = carry.work;
    count = carry.count;
  }
  carry.active = false;

  // The blocking clauses asserted below are only valid inside this
  // enumeration, so this is the one elimination routine that cannot share
  // the run's persistent session solver; it still reports its effort.
  sat::CircuitSolver solver(mgr);
  solver.setInterrupt([&budget] { return budget.exhausted(); });
  const auto exportEffort = [&] { sat::exportEffort(stats, solver); };
  const auto pause = [&] {
    carry = {true, f, result, {}, count};
    exportEffort();
    return std::nullopt;
  };
  // States already covered by a previous, paused enumeration.
  if (result != aig::kFalse) {
    const Lit block[] = {!result};
    solver.addClause(block);
  }

  for (;;) {
    if (budget.exhausted()) return pause();
    const Lit assumptions[] = {f};
    const sat::Status st = solver.solveLimited(assumptions, -1);
    if (st == sat::Status::Unsat) break;
    if (st == sat::Status::Undef)  // interrupted mid-solve
      return pause();
    if (++count > maxEnum) {
      stats.add("allsat.enum_overflow");
      carry = {true, f, aig::kFalse, {}, 0, true};  // permanent give-up
      exportEffort();
      return std::nullopt;
    }
    // Circuit cofactoring (Ganai et al. [2]): substitute the model's
    // values for the enumerated variables only.
    std::vector<aig::VarSub> consts;
    consts.reserve(live.size());
    for (const VarId v : live)
      consts.emplace_back(v, solver.modelOf(v) ? aig::kTrue : aig::kFalse);
    const Lit cube = mgr.compose(f, consts);
    result = mgr.mkOr(result, cube);
    // Block every state covered by this cofactor.
    const Lit block[] = {!cube};
    solver.addClause(block);
    stats.add("allsat.enumerations");
  }
  exportEffort();
  return result;
}

}  // namespace

std::unique_ptr<Session> CircuitQuantReach::start(const Network& net) const {
  // The eliminator captures the options by value: the session is
  // self-contained and may outlive the engine. The mutable carry keeps
  // the partially-quantified pre-image across a budget pause, so slices
  // finer than one whole elimination still converge.
  const auto eliminate =
      [quantOpts = opts_.quant, carry = EliminateCarry{}](
          const detail::PreImageRequest& req) mutable -> std::optional<Lit> {
    quant::QuantOptions qopts = quantOpts;
    qopts.interrupt = [b = req.budget] { return b->exhausted(); };
    qopts.context = req.session;  // run-wide solver + pair cache
    quant::Quantifier q(*req.mgr, qopts);
    Lit f = req.formula;
    std::vector<VarId> vars(req.net->inputVars);
    if (carry.active && carry.formula == req.formula) {
      f = carry.work;
      vars = std::move(carry.vars);
    }
    carry.active = false;
    auto r = q.quantifyAll(f, vars);
    f = r.f;
    vars = std::move(r.residual);
    // A standalone circuit engine must finish the job: aborted variables
    // are expanded without the growth bound.
    bool interrupted = req.budget->exhausted();
    while (!interrupted && !vars.empty()) {
      f = q.quantifyVarForced(f, vars.front());
      vars.erase(vars.begin());
      interrupted = req.budget->exhausted();
    }
    req.stats->merge(q.stats());
    if (interrupted && !vars.empty()) {
      carry = {true, req.formula, f, std::move(vars), 0};
      return std::nullopt;
    }
    return f;
  };
  return std::make_unique<detail::BackwardReachSession>(
      net, name(), opts_.limits, opts_.compaction, opts_.hardConeLimit,
      eliminate);
}

std::unique_ptr<Session> AllSatPreimageReach::start(const Network& net) const {
  const auto eliminate =
      [maxEnum = opts_.maxEnumPerImage, carry = EliminateCarry{}](
          const detail::PreImageRequest& req) mutable -> std::optional<Lit> {
    return allSatEliminate(*req.mgr, req.formula, req.net->inputVars,
                           maxEnum, *req.stats, *req.budget, carry);
  };
  return std::make_unique<detail::BackwardReachSession>(
      net, name(), opts_.limits, CompactionPolicy{},
      /*hardConeLimit=*/2'000'000, eliminate);
}

std::unique_ptr<Session> HybridReach::start(const Network& net) const {
  const auto eliminate =
      [quantOpts = opts_.quant, maxEnum = opts_.maxEnumPerImage,
       carry = EliminateCarry{}](
          const detail::PreImageRequest& req) mutable -> std::optional<Lit> {
    // Phase 1 (§4): partial circuit quantification — cheap variables are
    // eliminated, blow-up-prone ones abort and stay. A pause mid-phase-2
    // retries phase 1, which replays from the warm session pair cache and
    // reproduces the same partial result, re-keying the phase-2 carry.
    quant::QuantOptions qopts = quantOpts;
    qopts.interrupt = [b = req.budget] { return b->exhausted(); };
    qopts.context = req.session;  // shared with the fixpoint checks
    quant::Quantifier q(*req.mgr, qopts);
    auto r = q.quantifyAll(req.formula, req.net->inputVars);
    req.stats->merge(q.stats());
    if (req.budget->exhausted() && !r.residual.empty())
      return std::nullopt;  // interrupted mid-quantification: retry
    req.stats->add("hybrid.residual_vars",
                   static_cast<std::int64_t>(r.residual.size()));
    if (r.residual.empty()) return r.f;
    // Phase 2: the remaining decision variables go to all-SAT enumeration.
    return allSatEliminate(*req.mgr, r.f, r.residual, maxEnum, *req.stats,
                           *req.budget, carry);
  };
  return std::make_unique<detail::BackwardReachSession>(
      net, name(), opts_.limits, CompactionPolicy{},
      /*hardConeLimit=*/2'000'000, eliminate);
}

PreprocessResult preprocessQuantifyInputs(const Network& net,
                                          const quant::QuantOptions& opts) {
  PreprocessResult out;
  out.net.name = net.name + "+qpre";
  out.net.stateVars = net.stateVars;
  out.net.inputVars = net.inputVars;
  out.net.init = net.init;

  std::vector<Lit> roots(net.next.begin(), net.next.end());
  roots.push_back(net.bad);
  auto moved = out.net.aig.transferFrom(net.aig, roots);
  out.net.next.assign(moved.begin(), moved.end() - 1);
  Lit bad = moved.back();

  // Inputs present in the bad cone.
  std::vector<VarId> badInputs;
  {
    const auto support = out.net.aig.supportVars(bad);
    for (const VarId v : net.inputVars)
      if (std::binary_search(support.begin(), support.end(), v))
        badInputs.push_back(v);
  }
  out.inputsBefore = badInputs.size();

  quant::Quantifier q(out.net.aig, opts);
  auto r = q.quantifyAll(bad, badInputs);
  out.net.bad = r.f;

  std::size_t after = 0;
  {
    const auto support = out.net.aig.supportVars(out.net.bad);
    for (const VarId v : net.inputVars)
      if (std::binary_search(support.begin(), support.end(), v)) ++after;
  }
  out.inputsAfter = after;
  return out;
}

std::vector<std::unique_ptr<Engine>> makeAllEngines() {
  std::vector<std::unique_ptr<Engine>> engines;
  for (const std::string& name : engineNames())
    engines.push_back(makeEngine(name));
  return engines;
}

std::vector<std::string> engineNames() {
  return {"cbq-reach", "cbq-fwd",     "bdd-bwd",      "bdd-fwd",
          "bmc",       "k-induction", "allsat-reach", "hybrid-reach"};
}

std::unique_ptr<Engine> makeEngine(const std::string& name) {
  if (name == "cbq-reach") return std::make_unique<CircuitQuantReach>();
  if (name == "cbq-fwd") return std::make_unique<CircuitQuantForwardReach>();
  if (name == "bdd-bwd") return std::make_unique<BddBackwardReach>();
  if (name == "bdd-fwd") return std::make_unique<BddForwardReach>();
  if (name == "bmc") return std::make_unique<Bmc>();
  if (name == "k-induction") return std::make_unique<KInduction>();
  if (name == "allsat-reach") return std::make_unique<AllSatPreimageReach>();
  if (name == "hybrid-reach") return std::make_unique<HybridReach>();
  return nullptr;
}

}  // namespace cbq::mc
