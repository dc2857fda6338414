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
  std::unordered_map<VarId, bool> state = net.initAssignment();
  for (int t = 0; t <= d; ++t) {
    BddRef target =
        t < d ? bm.compose(frontiers[static_cast<std::size_t>(d - 1 - t)],
                           subst)
              : bad;
    // Fix the current state by cofactoring; what remains is over inputs.
    for (const auto& [v, value] : state)
      target = bm.cofactor(target, v, value);
    const auto pick = bm.anySat(target);

    std::unordered_map<VarId, bool> inputs;
    for (const VarId v : net.inputVars) {
      auto it = pick.find(v);
      inputs.emplace(v, it != pick.end() && it->second);
    }
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
  return trace;
}

/// Shared session scaffolding for the two BDD engines: the manager and
/// the incrementally-built model (next/bad/init BDDs) plus the
/// interrupt/NodeLimit handling around each resume.
class BddSessionBase : public Session {
 public:
  BddSessionBase(const Network& net, const BddReachOptions& opts,
                 std::string engineName)
      : net_(&net), opts_(opts) {
    res_.engine = std::move(engineName);
    initDense_ = net.initAssignmentDense();
  }

  [[nodiscard]] std::string name() const override { return res_.engine; }

 protected:
  Progress doResume(const portfolio::Budget& budget) override {
    const auto bud = sliceBudget(budget, opts_.limits.timeLimitSeconds);
    if (!bud) return snapshot(Verdict::Unknown, true);
    curBud_ = &*bud;
    Progress p = [&] {
      try {
        return run(*bud);
      } catch (const bdd::NodeLimitExceeded&) {
        res_.stats.add("bdd.node_limit_hits");
        return snapshot(Verdict::Unknown, true);
      } catch (const bdd::Interrupted&) {
        // Budget fired mid-operation: pause; the retried operation
        // fast-forwards through the unique table / operator caches.
        res_.stats.add("bdd.interrupts");
        return snapshot(Verdict::Unknown, false);
      }
    }();
    curBud_ = nullptr;
    return p;
  }

  /// Engine loop; throws bdd::Interrupted / NodeLimitExceeded.
  virtual Progress run(const portfolio::Budget& bud) = 0;

  Progress snapshot(Verdict v, bool done) {
    Progress p;
    p.done = done;
    p.result = res_;
    p.result.verdict = v;
    p.result.steps = iter_;
    p.bound = iter_;
    p.advanced = committedThisSlice_ > 0;
    if (mgr_ != nullptr) p.effort = mgr_->numNodes();
    return p;
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
      mgr_->setInterrupt(
          [this] { return curBud_ != nullptr && curBud_->exhausted(); });
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
  CheckResult res_;
  std::vector<bool> initDense_;

  std::unique_ptr<bdd::BddManager> mgr_;
  std::vector<BddRef> next_;
  BddRef bad_ = bdd::kFalseBdd;
  BddRef initCube_ = bdd::kTrueBdd;
  bool badBuilt_ = false;
  std::size_t initIdx_ = 0;

  int iter_ = 0;
  int committedThisSlice_ = 0;
  const portfolio::Budget* curBud_ = nullptr;
};

class BddBackwardSession final : public BddSessionBase {
 public:
  using BddSessionBase::BddSessionBase;

 private:
  enum class Phase : std::uint8_t { Build, Guard, Pre, Trace };

  Progress run(const portfolio::Budget& bud) override {
    committedThisSlice_ = 0;
    for (;;) {
      if (bud.exhausted()) return snapshot(Verdict::Unknown, false);
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
          if (iter_ >= opts_.limits.maxIterations ||
              bud.nodesExceeded(mgr_->numNodes()))
            return snapshot(Verdict::Unknown, true);
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
            return snapshot(Verdict::Safe, true);
          }
          frontier_ = pre;
          reached_ = bm.bddOr(reached_, pre);
          frontiers_.push_back(frontier_);
          res_.stats.high("bdd.max_frontier_size",
                          static_cast<double>(bm.size(frontier_)));
          ++committedThisSlice_;
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
          return snapshot(Verdict::Unsafe, true);
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
  enum class Phase : std::uint8_t { Build, Check, Img };

  Progress run(const portfolio::Budget& bud) override {
    committedThisSlice_ = 0;
    for (;;) {
      if (bud.exhausted()) return snapshot(Verdict::Unknown, false);
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
          phase_ = Phase::Check;
          break;
        }
        case Phase::Check: {
          bdd::BddManager& bm = *mgr_;
          if (bm.bddAnd(reached_, badStates_) != bdd::kFalseBdd) {
            // Forward traversal: counterexample reconstruction would need
            // a backward pass over the onion rings; the verdict (and
            // depth) is what the baseline comparison uses.
            return snapshot(Verdict::Unsafe, true);
          }
          if (iter_ >= opts_.limits.maxIterations ||
              bud.nodesExceeded(bm.numNodes()))
            return snapshot(Verdict::Unknown, true);
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
            return snapshot(Verdict::Safe, true);
          }
          reached_ = bm.bddOr(reached_, fresh);
          frontier_ = fresh;
          ++committedThisSlice_;
          phase_ = Phase::Check;
          break;
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
};

}  // namespace

std::unique_ptr<Session> BddBackwardReach::start(const Network& net) const {
  return std::make_unique<BddBackwardSession>(net, opts_, name());
}

std::unique_ptr<Session> BddForwardReach::start(const Network& net) const {
  return std::make_unique<BddForwardSession>(net, opts_, name());
}

}  // namespace cbq::mc
