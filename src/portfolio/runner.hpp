#pragma once
// Engine portfolio — the paper's experimental observation turned into a
// runtime strategy.
//
// No single engine dominates: circuit quantification wins where BDDs blow
// up (multiplier cones), BDDs win on wide shallow control, BMC finds deep
// bugs that backward fixpoints crawl towards, induction proves what BMC
// never can. The PortfolioRunner preprocesses a problem once, opens one
// persistent Session per engine (Engine::start) and resumes the sessions
// on a pool of workers; the first definitive verdict (Safe, or Unsafe
// whose trace replays) wins and a shared CancelToken stops every rival.
//
// One scheduling loop serves every schedule; the schedules differ only in
// worker count. Race gives every engine its own worker, Slice shares
// `sliceWorkers` workers, and the sequential entry (prep::checkWithPrep)
// is one engine on one worker. The pause rule follows from the count: a
// session is resumed under a short, adaptive slice budget only while live
// sessions outnumber workers — a session with no rival waiting for its
// worker runs under the whole remaining budget and is never paused.

#include <functional>
#include <string>
#include <vector>

#include "mc/engines.hpp"
#include "obs/progress.hpp"
#include "portfolio/budget.hpp"
#include "prep/pipeline.hpp"

namespace cbq::portfolio {

/// How the portfolio spends its cores on one problem.
enum class ScheduleMode : std::uint8_t {
  Race,   ///< one worker per engine: no session is ever paused
  Slice,  ///< `sliceWorkers` workers time-slice the sessions
};

struct PortfolioOptions {
  /// Engine names (mc::engineNames()); empty means defaultPortfolio().
  std::vector<std::string> engines;
  double timeLimitSeconds = 0.0;  ///< whole-problem wall budget (0 = none)
  std::size_t nodeLimit = 0;      ///< per-engine live-node bound (0 = none)
  /// Soft per-problem RSS ceiling in bytes (0 = none): when the process
  /// crosses it, every engine on the problem bails out to Unknown through
  /// the cooperative budget path instead of riding into the OOM killer
  /// (Budget::withRssLimit has the precise semantics).
  std::size_t rssLimitBytes = 0;
  /// Replay an Unsafe winner's counterexample before accepting it; a
  /// failing replay demotes the verdict to Unknown (the engine keeps
  /// racing rivals instead of poisoning the result).
  bool verifyCex = true;

  /// Preprocessing pipeline (prep/pipeline.hpp), run ONCE per problem
  /// before any engine starts; every session clones the reduced network.
  /// Unsafe verdicts are lifted back and refereed on the original.
  prep::PrepOptions prep{};

  /// Live telemetry sink (obs/progress.hpp): called at natural boundaries
  /// — prep done, slice finished, engine failed, final verdict. May be
  /// invoked concurrently from several workers; null disables.
  obs::ProgressFn onProgress;

  ScheduleMode schedule = ScheduleMode::Race;
  /// Slice mode only: workers resuming sessions (<=0: one).
  int sliceWorkers = 1;
};

/// One engine's contribution to a portfolio run.
struct EngineRun {
  std::string engine;
  mc::Verdict verdict = mc::Verdict::Unknown;
  int steps = 0;
  double seconds = 0.0;   ///< the engine's own wall time
  bool winner = false;
  bool cancelled = false;  ///< stopped unfinished because a rival won
  int slices = 0;          ///< resume() calls granted (1 when never paused)
  /// The engine threw (any exception type) and was quarantined: removed
  /// from the rotation while the survivors kept running. Its verdict
  /// stays Unknown and `error` records what escaped.
  bool failed = false;
  std::string error;
  obs::Metrics stats;
};

/// What preprocessing did to one problem, for reports. `decided` marks
/// problems the pipeline settled without running any engine.
struct PrepSummary {
  bool enabled = false;
  bool decided = false;
  double seconds = 0.0;
  std::size_t latchesBefore = 0, latchesAfter = 0;
  std::size_t inputsBefore = 0, inputsAfter = 0;
  std::size_t andsBefore = 0, andsAfter = 0;
  std::vector<prep::PassStats> passes;
};

struct PortfolioResult {
  /// The winning engine's result; verdict Unknown (engine "portfolio")
  /// when nobody produced a definitive answer within the budget. For
  /// Unsafe verdicts `best.cex` is the LIFTED trace — it replays on the
  /// original (pre-preprocessing) network.
  mc::CheckResult best;
  std::vector<EngineRun> runs;  ///< one per engine, in engine-set order
  PrepSummary prep;             ///< preprocessing shrink record
  double wallSeconds = 0.0;
  /// Containment diagnostics: how many engines threw and were
  /// quarantined (== runs with failed set), and whether the soft RSS
  /// ceiling tripped during this problem. When every engine failed the
  /// verdict is Unknown and allEnginesFailed is the reason.
  int engineFailures = 0;
  bool allEnginesFailed = false;
  bool memLimitHit = false;

  [[nodiscard]] const EngineRun* winner() const {
    for (const EngineRun& r : runs)
      if (r.winner) return &r;
    return nullptr;
  }
};

/// The default racing set: the paper's engine, both classical baselines,
/// the bounded methods and the §4 hybrid — one representative per
/// complementary strength, cheap enough to run side by side.
std::vector<std::string> defaultPortfolio();

class PortfolioRunner {
 public:
  /// Throws std::invalid_argument when an engine name is unknown.
  explicit PortfolioRunner(PortfolioOptions opts = {});

  /// The engine entry path: preprocesses `net` once (prep pipeline, per
  /// opts.prep), then resumes one session per engine on the REDUCED
  /// problem — one worker per engine under Race, `sliceWorkers` under
  /// Slice; each session owns a clone of the reduced network. An Unsafe
  /// winner's trace is lifted through the transform stack and refereed
  /// by replayHitsBad on the ORIGINAL network before it is reported.
  /// Thread-safe.
  [[nodiscard]] PortfolioResult run(const mc::Network& net) const;

 private:
  PortfolioOptions opts_;
};

}  // namespace cbq::portfolio
