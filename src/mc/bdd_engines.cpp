// The classical BDD reachability baselines (§1 of the paper): backward
// pre-image by vector composition, forward image by relational product.
// Node limits convert memory blow-up into a clean Unknown verdict.
//
// Both run as persistent sessions: the BDD manager, the converted
// next-state/bad functions and the reached set survive a budget pause.
// A bdd::Interrupted thrown mid-operation pauses the session; the
// operation is retried on the next resume, and because every node built
// before the interrupt stays in the unique table (and the operator
// caches), the retry fast-forwards through the finished prefix instead
// of recomputing it.

#include <algorithm>

#include "bdd/bdd.hpp"
#include "obs/tracer.hpp"
#include "mc/engines.hpp"

namespace cbq::mc {

namespace {

using aig::VarId;
using bdd::BddRef;

/// Backward counterexample reconstruction from the BDD frontier chain.
Trace reconstructBddTrace(const Network& net, bdd::BddManager& bm,
                          const std::vector<BddRef>& next, BddRef bad,
                          const std::vector<BddRef>& frontiers, int d) {
  std::unordered_map<VarId, BddRef> subst;
  for (std::size_t i = 0; i < net.stateVars.size(); ++i)
    subst.emplace(net.stateVars[i], next[i]);

  Trace trace;
  std::vector<bool> state = net.init;  // per latch
  for (int t = 0; t <= d; ++t) {
    BddRef target =
        t < d ? bm.compose(frontiers[static_cast<std::size_t>(d - 1 - t)],
                           subst)
              : bad;
    // Fix the current state by cofactoring; what remains is over inputs.
    for (std::size_t i = 0; i < net.numLatches(); ++i)
      target = bm.cofactor(target, net.stateVars[i], state[i]);
    const auto pick = bm.anySat(target);

    std::unordered_map<VarId, bool> inputs;
    for (const VarId v : net.inputVars) {
      auto it = pick.find(v);
      inputs.emplace(v, it != pick.end() && it->second);
    }
    trace.inputs.push_back(inputs);

    if (t < d) state = net.step(state, inputs);
  }
  return trace;
}

/// Forward counterexample reconstruction over the onion rings. A state
/// first reached at depth t+1 has a predecessor in ring t, so the trace
/// is rebuilt backwards with one anySat per step over
/// ring_t ∧ TR|s'=s_{t+1}, starting from a bad state of the last ring.
/// Variables anySat leaves free are don't-cares and read as false.
Trace reconstructForwardTrace(const Network& net, bdd::BddManager& bm,
                              BddRef tr, const std::vector<VarId>& nsVars,
                              BddRef bad, const std::vector<BddRef>& rings) {
  using Assignment = std::unordered_map<VarId, bool>;
  const auto valueOf = [](const Assignment& pick, VarId v) {
    const auto it = pick.find(v);
    return it != pick.end() && it->second;
  };
  const auto inputsOf = [&](const Assignment& pick) {
    Assignment inputs;
    for (const VarId v : net.inputVars) inputs.emplace(v, valueOf(pick, v));
    return inputs;
  };

  Assignment pick = bm.anySat(bm.bddAnd(rings.back(), bad));
  std::vector<Assignment> inputsRev{inputsOf(pick)};
  for (std::size_t t = rings.size() - 1; t-- > 0;) {
    BddRef step = tr;
    for (std::size_t j = 0; j < net.numLatches(); ++j)
      step = bm.cofactor(step, nsVars[j], valueOf(pick, net.stateVars[j]));
    pick = bm.anySat(bm.bddAnd(rings[t], step));
    inputsRev.push_back(inputsOf(pick));
  }
  Trace trace;
  trace.inputs.assign(inputsRev.rbegin(), inputsRev.rend());
  return trace;
}

/// Shared session scaffolding for the two BDD engines: the manager and
/// the incrementally-built model (next/bad/init BDDs) plus the
/// interrupt/NodeLimit handling around each resume.
class BddSessionBase : public Session {
 public:
  BddSessionBase(const Network& net, const BddReachOptions& opts,
                 std::string engineName)
      : Session(std::move(engineName)), net_(&net), opts_(opts) {
    initDense_ = net.initAssignmentDense();
  }

 protected:
  Progress doResume(const portfolio::Budget& budget) override {
    try {
      return run(budget);
    } catch (const bdd::NodeLimitExceeded&) {
      res_.stats.add("bdd.node_limit_hits");
      return report(Verdict::Unknown, true, iter_);
    } catch (const bdd::Interrupted&) {
      // Budget fired mid-operation: pause; the retried operation
      // fast-forwards through the unique table / operator caches.
      res_.stats.add("bdd.interrupts");
      return report(Verdict::Unknown, false, iter_);
    }
  }

  /// Engine loop; throws bdd::Interrupted / NodeLimitExceeded.
  virtual Progress run(const portfolio::Budget& bud) = 0;

  /// BDD effort is the manager's live node count.
  [[nodiscard]] std::uint64_t effort(
      const obs::Metrics& /*stats*/) const override {
    return mgr_ != nullptr ? mgr_->numNodes() : 0;
  }

  /// Builds manager + next/bad/init BDDs incrementally: an interrupt
  /// mid-conversion propagates as an exception, finished pieces are
  /// kept, and the next call continues where this one stopped. Variable
  /// order: latches and inputs in network declaration order (generators
  /// interleave related variables).
  void buildModel() {
    CBQ_OBS_SPAN("bdd", "build-model");
    const Network& net = *net_;
    if (mgr_ == nullptr) {
      mgr_ = std::make_unique<bdd::BddManager>(opts_.nodeLimit);
      mgr_->setInterrupt(interrupt());
      for (const VarId v : net.stateVars) mgr_->registerVar(v);
      for (const VarId v : net.inputVars) mgr_->registerVar(v);
      next_.reserve(net.next.size());
    }
    while (next_.size() < net.next.size())
      next_.push_back(bdd::aigToBdd(net.aig, net.next[next_.size()], *mgr_));
    if (!badBuilt_) {
      bad_ = bdd::aigToBdd(net.aig, net.bad, *mgr_);
      badBuilt_ = true;
    }
    while (initIdx_ < net.numLatches()) {
      BddRef v = mgr_->var(net.stateVars[initIdx_]);
      if (!net.init[initIdx_]) v = mgr_->bddNot(v);
      initCube_ = mgr_->bddAnd(initCube_, v);
      ++initIdx_;
    }
  }

  const Network* net_;
  BddReachOptions opts_;
  std::vector<bool> initDense_;

  std::unique_ptr<bdd::BddManager> mgr_;
  std::vector<BddRef> next_;
  BddRef bad_ = bdd::kFalseBdd;
  BddRef initCube_ = bdd::kTrueBdd;
  bool badBuilt_ = false;
  std::size_t initIdx_ = 0;

  int iter_ = 0;
};

class BddBackwardSession final : public BddSessionBase {
 public:
  using BddSessionBase::BddSessionBase;

 private:
  enum class Phase : std::uint8_t { Build, Guard, Pre, Trace };

  Progress run(const portfolio::Budget& bud) override {
    for (;;) {
      if (bud.exhausted()) return report(Verdict::Unknown, false, iter_);
      switch (phase_) {
        case Phase::Build: {
          buildModel();
          bdd::BddManager& bm = *mgr_;
          for (std::size_t i = 0; i < net_->stateVars.size(); ++i)
            subst_.emplace(net_->stateVars[i], next_[i]);
          frontier_ = bm.exists(bad_, net_->inputVars);
          reached_ = frontier_;
          frontiers_.assign(1, frontier_);
          phase_ = bm.evaluate(frontier_, initDense_) ? Phase::Trace
                                                      : Phase::Guard;
          break;
        }
        case Phase::Guard: {
          if (bud.nodesExceeded(mgr_->numNodes()))
            return report(Verdict::Unknown, true, iter_);
          ++iter_;
          phase_ = Phase::Pre;
          break;
        }
        case Phase::Pre: {
          CBQ_OBS_SPAN("bdd", "pre-image");
          bdd::BddManager& bm = *mgr_;
          const BddRef pre =
              bm.exists(bm.compose(frontier_, subst_), net_->inputVars);
          // Fixpoint: pre ∧ ¬reached = 0.
          const BddRef fresh = bm.bddAnd(pre, bm.bddNot(reached_));
          res_.stats.high("bdd.peak_nodes",
                          static_cast<double>(bm.numNodes()));
          if (fresh == bdd::kFalseBdd) {
            res_.stats.set("bdd.reached_size",
                           static_cast<double>(bm.size(reached_)));
            return report(Verdict::Safe, true, iter_);
          }
          frontier_ = pre;
          reached_ = bm.bddOr(reached_, pre);
          frontiers_.push_back(frontier_);
          res_.stats.high("bdd.max_frontier_size",
                          static_cast<double>(bm.size(frontier_)));
          advanced_ = true;
          phase_ = bm.evaluate(frontier_, initDense_) ? Phase::Trace
                                                      : Phase::Guard;
          break;
        }
        case Phase::Trace: {
          CBQ_OBS_SPAN("bdd", "trace");
          // Reconstruction first: a node-limit/interrupt abort mid-trace
          // must not leave a "definitive" Unsafe with no replayable
          // counterexample — both pause/abort paths re-enter here.
          res_.cex = reconstructBddTrace(*net_, *mgr_, next_, bad_,
                                         frontiers_, iter_);
          return report(Verdict::Unsafe, true, iter_);
        }
      }
    }
  }

  Phase phase_ = Phase::Build;
  std::unordered_map<VarId, BddRef> subst_;
  BddRef frontier_ = bdd::kFalseBdd;
  BddRef reached_ = bdd::kFalseBdd;
  std::vector<BddRef> frontiers_;
};

class BddForwardSession final : public BddSessionBase {
 public:
  using BddSessionBase::BddSessionBase;

 private:
  enum class Phase : std::uint8_t { Build, Check, Img, Trace };

  Progress run(const portfolio::Budget& bud) override {
    for (;;) {
      if (bud.exhausted()) return report(Verdict::Unknown, false, iter_);
      switch (phase_) {
        case Phase::Build: {
          buildModel();
          bdd::BddManager& bm = *mgr_;
          const Network& net = *net_;
          if (nsVars_.empty()) {
            // Next-state variables get fresh ids above every network var.
            VarId maxVar = 0;
            for (const VarId v : net.stateVars)
              maxVar = std::max(maxVar, v);
            for (const VarId v : net.inputVars)
              maxVar = std::max(maxVar, v);
            nsVars_.resize(net.numLatches());
            for (std::size_t i = 0; i < nsVars_.size(); ++i)
              nsVars_[i] = maxVar + 1 + static_cast<VarId>(i);
          }
          // Monolithic transition relation ∧_j (s'_j ↔ δ_j), built one
          // conjunct at a time so an interrupt pause resumes mid-build.
          while (trIdx_ < net.numLatches()) {
            const BddRef eq = bm.bddNot(
                bm.bddXor(bm.var(nsVars_[trIdx_]), next_[trIdx_]));
            tr_ = bm.bddAnd(tr_, eq);
            ++trIdx_;
          }
          if (presentAndInputs_.empty()) {
            // Quantify current state and inputs during the product.
            presentAndInputs_ = net.stateVars;
            presentAndInputs_.insert(presentAndInputs_.end(),
                                     net.inputVars.begin(),
                                     net.inputVars.end());
            for (std::size_t i = 0; i < net.numLatches(); ++i)
              rename_.emplace(nsVars_[i], bm.var(net.stateVars[i]));
          }
          badStates_ = bm.exists(bad_, net.inputVars);
          reached_ = initCube_;
          frontier_ = initCube_;
          rings_.assign(1, initCube_);  // onion rings R_0, R_1, ...
          phase_ = Phase::Check;
          break;
        }
        case Phase::Check: {
          bdd::BddManager& bm = *mgr_;
          // Every earlier ring was checked clean, so a hit lies in the
          // newest ring.
          if (bm.bddAnd(reached_, badStates_) != bdd::kFalseBdd) {
            phase_ = Phase::Trace;
            break;
          }
          if (bud.nodesExceeded(bm.numNodes()))
            return report(Verdict::Unknown, true, iter_);
          ++iter_;
          phase_ = Phase::Img;
          break;
        }
        case Phase::Img: {
          CBQ_OBS_SPAN("bdd", "image");
          bdd::BddManager& bm = *mgr_;
          const BddRef imgNs =
              bm.andExists(tr_, frontier_, presentAndInputs_);
          const BddRef img = bm.compose(imgNs, rename_);
          const BddRef fresh = bm.bddAnd(img, bm.bddNot(reached_));
          res_.stats.high("bdd.peak_nodes",
                          static_cast<double>(bm.numNodes()));
          if (fresh == bdd::kFalseBdd) {
            res_.stats.set("bdd.reached_size",
                           static_cast<double>(bm.size(reached_)));
            return report(Verdict::Safe, true, iter_);
          }
          reached_ = bm.bddOr(reached_, fresh);
          frontier_ = fresh;
          rings_.push_back(frontier_);
          advanced_ = true;
          phase_ = Phase::Check;
          break;
        }
        case Phase::Trace: {
          CBQ_OBS_SPAN("bdd", "trace");
          // Reconstruction first, as in the backward session: a pause
          // mid-trace re-enters here instead of reporting a traceless
          // Unsafe.
          res_.cex = reconstructForwardTrace(*net_, *mgr_, tr_, nsVars_,
                                             bad_, rings_);
          return report(Verdict::Unsafe, true, iter_);
        }
      }
    }
  }

  Phase phase_ = Phase::Build;
  std::vector<VarId> nsVars_;
  BddRef tr_ = bdd::kTrueBdd;
  std::size_t trIdx_ = 0;
  std::vector<VarId> presentAndInputs_;
  std::unordered_map<VarId, BddRef> rename_;
  BddRef badStates_ = bdd::kFalseBdd;
  BddRef reached_ = bdd::kFalseBdd;
  BddRef frontier_ = bdd::kFalseBdd;
  std::vector<BddRef> rings_;  ///< fresh states per depth, for the trace
};

}  // namespace

std::unique_ptr<Session> BddBackwardReach::start(const Network& net) const {
  return std::make_unique<BddBackwardSession>(net, opts_, name());
}

std::unique_ptr<Session> BddForwardReach::start(const Network& net) const {
  return std::make_unique<BddForwardSession>(net, opts_, name());
}

}  // namespace cbq::mc
