#pragma once
// The model-checking engines of the reproduction.
//
//  * CircuitQuantReach — the paper's engine (§3): backward reachability
//    with AIG state sets, pre-image by substitution (in-lining) followed
//    by circuit-based quantification of the inputs.
//  * BddBackwardReach / BddForwardReach — the classical BDD baselines the
//    paper positions itself against (§1).
//  * Bmc — bounded model checking (Biere et al., cited as [1]).
//  * KInduction — temporal induction with simple-path constraints
//    (Sheeran et al., cited as [5]).
//  * AllSatPreimageReach — all-solution SAT pre-image with circuit
//    cofactoring (Ganai et al., cited as [2]).
//  * HybridReach — the paper's §4 combination: partial circuit
//    quantification first, all-SAT enumeration of the residual inputs.
//
// plus the §4 preprocessing utility that eliminates primary inputs from
// the bad cone before handing the problem to BMC / induction.
//
// Engines check exactly the Network they are given. The production entry
// paths (PortfolioRunner, prep::checkWithPrep — i.e. cbq check/batch/
// bench) hand them the REDUCED network produced by the prep pass
// pipeline (prep/pipeline.hpp) and lift any counterexample back to the
// original circuit; an engine run directly is simply a run with
// preprocessing disabled.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mc/network.hpp"
#include "mc/result.hpp"
#include "portfolio/budget.hpp"
#include "quant/quantifier.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace cbq::mc {

/// A paused, resumable engine run.
///
/// Engine::start() builds the session skeleton (managers, solvers,
/// transfers — no search); resume() runs until a definitive verdict, a
/// permanent give-up (both report done = true), or the slice budget
/// expires (done = false). A paused session keeps all working state —
/// the unrolled incremental solver, the frontier and sweep-session pair
/// cache, the BDD reached set — so resume() continues where the previous
/// slice stopped, arbitrarily many times. A session resumed in N slices
/// reaches the same verdict (and counterexample) as one uninterrupted
/// run; only the wall-clock split differs.
///
/// The budget passed to resume() carries the caller's cooperative
/// cancellation (the scheduler's token), the slice deadline and node
/// limit. Engines fold their own option time limits on top, measured
/// against the session's total accumulated time, so a session whose own
/// limit fired reports done rather than pausing forever.
///
/// The Network handed to start() must outlive the session, and a session
/// must not run concurrently with other readers of that Network (const
/// manager reads stamp mutable scratch arenas).
class Session {
 public:
  virtual ~Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Runs until verdict, permanent give-up, or budget expiry. After a
  /// done report, further calls return the same final Progress.
  Progress resume(const portfolio::Budget& budget = {}) {
    if (final_.has_value()) return *final_;
    // Injection site: the one chokepoint every engine slice passes
    // through, regardless of which engine implements doResume().
    CBQ_FAULT_POINT("engine.resume");
    util::Timer timer;
    Progress p = doResume(budget);
    p.sliceSeconds = timer.seconds();
    totalSeconds_ += p.sliceSeconds;
    p.result.seconds = totalSeconds_;
    p.effortDelta = p.effort - std::min(lastEffort_, p.effort);
    lastEffort_ = p.effort;
    if (p.done) final_ = p;
    return p;
  }

 protected:
  Session() = default;

  virtual Progress doResume(const portfolio::Budget& budget) = 0;

  /// Wall time accumulated across every finished resume() — what a
  /// session measures its own option time limit against.
  [[nodiscard]] double totalSeconds() const { return totalSeconds_; }

  /// Folds an engine-option time limit into the slice budget: the
  /// remaining own allowance is the limit minus time already consumed.
  /// Returns nullopt when the own limit is spent (the caller should
  /// report done). `limitSeconds` <= 0 means no own limit.
  [[nodiscard]] std::optional<portfolio::Budget> sliceBudget(
      const portfolio::Budget& budget, double limitSeconds) const {
    if (limitSeconds <= 0.0) return budget;
    const double remaining = limitSeconds - totalSeconds_;
    if (remaining <= 0.0) return std::nullopt;
    return budget.tightened(remaining);
  }

 private:
  std::optional<Progress> final_;
  double totalSeconds_ = 0.0;
  std::uint64_t lastEffort_ = 0;
};

/// Common interface: every engine checks the invariant of a network.
///
/// The primitive operation is start(): it opens a persistent Session
/// that a scheduler resumes in slices (see Session above). check() is
/// the one-shot wrapper — start() and resume to completion under one
/// budget — kept for callers that do not schedule.
class Engine {
 public:
  virtual ~Engine() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Opens a session on `net`. The session is self-contained (options
  /// are copied in) and may outlive the engine, but not `net`.
  [[nodiscard]] virtual std::unique_ptr<Session> start(
      const Network& net) const = 0;

  CheckResult check(const Network& net,
                    const portfolio::Budget& budget = {}) const {
    const auto session = start(net);
    for (;;) {
      Progress p = session->resume(budget);
      if (p.done || budget.exhausted()) return std::move(p.result);
    }
  }
};

/// Shared resource bounds for the fixpoint engines. The time limit is
/// measured against the session's total accumulated resume() time and
/// folded into each slice budget, not enforced by an ad-hoc deadline.
struct ReachLimits {
  int maxIterations = 10000;
  double timeLimitSeconds = 60.0;
};

/// Reached-set cone size beyond which the AIG reachability engines give
/// up (Unknown).
inline constexpr std::size_t kHardConeLimit = 2'000'000;

// ----- the paper's engine ---------------------------------------------------

struct CircuitQuantReachOptions {
  quant::QuantOptions quant{};
  ReachLimits limits{};
};

class CircuitQuantReach final : public Engine {
 public:
  explicit CircuitQuantReach(CircuitQuantReachOptions opts = {})
      : opts_(opts) {}
  [[nodiscard]] std::string name() const override { return "cbq-reach"; }

  [[nodiscard]] std::unique_ptr<Session> start(
      const Network& net) const override;

 private:
  CircuitQuantReachOptions opts_;
};

// ----- forward variant of the paper's engine ---------------------------------

/// Forward reachability with AIG state sets. The paper's §1 observes that
/// *post*-image computation existentially quantifies both input and state
/// variables; this engine exercises exactly that: the image is
/// ∃s,i . TR(s,i,s') ∧ F(s), computed with circuit-based quantification
/// over the full (state ∪ input) set, then renamed s'→s by substitution.
/// Much heavier per step than the backward engine (more variables per
/// quantification) — which is why the paper works backward — but it
/// provides the measurement for that claim and finds shallow bugs fast.
struct CircuitQuantForwardOptions {
  quant::QuantOptions quant{};
  ReachLimits limits{};
};

class CircuitQuantForwardReach final : public Engine {
 public:
  explicit CircuitQuantForwardReach(CircuitQuantForwardOptions opts = {})
      : opts_(opts) {}
  [[nodiscard]] std::string name() const override { return "cbq-fwd"; }

  [[nodiscard]] std::unique_ptr<Session> start(
      const Network& net) const override;

 private:
  CircuitQuantForwardOptions opts_;
};

// ----- BDD baselines ----------------------------------------------------------

struct BddReachOptions {
  std::size_t nodeLimit = 4'000'000;  ///< abort to Unknown beyond this
  ReachLimits limits{};
};

class BddBackwardReach final : public Engine {
 public:
  explicit BddBackwardReach(BddReachOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string name() const override { return "bdd-bwd"; }

  [[nodiscard]] std::unique_ptr<Session> start(
      const Network& net) const override;

 private:
  BddReachOptions opts_;
};

class BddForwardReach final : public Engine {
 public:
  explicit BddForwardReach(BddReachOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string name() const override { return "bdd-fwd"; }

  [[nodiscard]] std::unique_ptr<Session> start(
      const Network& net) const override;

 private:
  BddReachOptions opts_;
};

// ----- bounded engines ----------------------------------------------------------

struct BmcOptions {
  int maxDepth = 128;
  double timeLimitSeconds = 60.0;
};

class Bmc final : public Engine {
 public:
  explicit Bmc(BmcOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string name() const override { return "bmc"; }

  [[nodiscard]] std::unique_ptr<Session> start(
      const Network& net) const override;

 private:
  BmcOptions opts_;
};

struct InductionOptions {
  int maxK = 64;
  double timeLimitSeconds = 60.0;
};

class KInduction final : public Engine {
 public:
  explicit KInduction(InductionOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string name() const override { return "k-induction"; }

  [[nodiscard]] std::unique_ptr<Session> start(
      const Network& net) const override;

 private:
  InductionOptions opts_;
};

// ----- all-SAT pre-image & hybrid ---------------------------------------------------

struct AllSatReachOptions {
  int maxEnumPerImage = 1 << 16;  ///< cofactor enumerations per pre-image
  ReachLimits limits{};
};

class AllSatPreimageReach final : public Engine {
 public:
  explicit AllSatPreimageReach(AllSatReachOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string name() const override { return "allsat-reach"; }

  [[nodiscard]] std::unique_ptr<Session> start(
      const Network& net) const override;

 private:
  AllSatReachOptions opts_;
};

struct HybridReachOptions {
  quant::QuantOptions quant{};    ///< partial quantification (aborts on)
  int maxEnumPerImage = 1 << 16;
  ReachLimits limits{};
};

class HybridReach final : public Engine {
 public:
  explicit HybridReach(HybridReachOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string name() const override { return "hybrid-reach"; }

  [[nodiscard]] std::unique_ptr<Session> start(
      const Network& net) const override;

 private:
  HybridReachOptions opts_;
};

// ----- §4 preprocessing ----------------------------------------------------------------

struct PreprocessResult {
  Network net;                    ///< copy with inputs quantified from bad
  std::size_t inputsBefore = 0;   ///< inputs in bad's support before
  std::size_t inputsAfter = 0;    ///< inputs left in bad's support
};

/// Eliminates primary inputs from the bad cone by circuit quantification —
/// sound for invariant checking because the violation test is terminal.
/// Reduces the decision variables any SAT-based engine spends on `bad`.
PreprocessResult preprocessQuantifyInputs(const Network& net,
                                          const quant::QuantOptions& opts = {});

/// The full engine portfolio with default options (used by benches/tests).
std::vector<std::unique_ptr<Engine>> makeAllEngines();

/// Canonical engine names, in makeAllEngines() order.
std::vector<std::string> engineNames();

/// Factory by canonical name ("cbq-reach", "bmc", ...); nullptr when the
/// name is unknown. The portfolio runner and the cbq CLI build their
/// engine sets through this registry.
std::unique_ptr<Engine> makeEngine(const std::string& name);

}  // namespace cbq::mc
