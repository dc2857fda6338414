// The resumable-session engine API and the cooperative time-sliced
// portfolio. The key guarantees under test:
//  * a zero-budget resume() returns Unknown without advancing any state,
//    so a scheduler can always poke a session safely;
//  * a session resumed across many budget slices reaches the same
//    verdict (with a replay-verified trace for Unsafe) and the same step
//    count as one uninterrupted check() — for every engine;
//  * a finished session's report is final and idempotent;
//  * the time-sliced portfolio (PortfolioRunner, ScheduleMode::Slice)
//    agrees with the racing schedule and with ground truth, on one worker
//    and on several, and never pauses a session no rival is waiting on.

#include <gtest/gtest.h>

#include <algorithm>

#include "circuits/suite.hpp"
#include "helpers.hpp"
#include "mc/engines.hpp"
#include "mc/network.hpp"
#include "portfolio/budget.hpp"
#include "portfolio/runner.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

using aig::Lit;
using aig::VarId;
using mc::Network;
using mc::Verdict;
using portfolio::Budget;

/// Random sequential network (same flavour as test_random_models): small
/// enough that every engine finishes fast, varied enough that both
/// verdicts and non-trivial traces occur.
Network randomNetwork(util::Random& rng, int latches, int inputs) {
  mc::NetworkBuilder b("random");
  std::vector<Lit> state;
  for (int i = 0; i < latches; ++i) state.push_back(b.addLatch(rng.flip()));
  for (int i = 0; i < inputs; ++i) b.addInput();
  aig::Aig& g = b.aig();
  const int vars = latches + inputs;
  for (int i = 0; i < latches; ++i) {
    b.setNext(static_cast<std::size_t>(i),
              test::randomFormula(g, rng, vars, 8));
  }
  const Lit raw = test::randomFormula(g, rng, vars, 6);
  b.setBad(g.mkAnd(raw, state[rng.below(static_cast<std::uint64_t>(
                       latches))] ^ rng.flip()));
  return b.finish();
}

/// Resumes `session` until done, starting from a tiny slice budget and
/// growing it geometrically: the early slices force mid-flight pauses,
/// while the growth bounds the total pause overhead so the run finishes
/// promptly even on very slow executions (ThreadSanitizer CI runs at
/// ~15x). Returns the final Progress and the number of slices it took.
std::pair<mc::Progress, int> resumeToCompletion(mc::Session& session,
                                                double sliceSeconds,
                                                int maxSlices = 200000) {
  mc::Progress p;
  int slices = 0;
  double slice = sliceSeconds;
  while (slices < maxSlices) {
    p = session.resume(Budget(slice));
    ++slices;
    if (p.done) break;
    slice = std::min(slice * 1.5, 2.0);
  }
  return {p, slices};
}

// ----- zero-budget resumes ---------------------------------------------------

TEST(Session, ZeroBudgetResumeReturnsUnknownWithoutAdvancing) {
  const auto inst = circuits::makeInstance("counter", 4, true);
  for (const std::string& name : mc::engineNames()) {
    SCOPED_TRACE(name);
    const auto engine = mc::makeEngine(name);
    const auto session = engine->start(inst.net);
    EXPECT_EQ(session->name(), name);
    // Budget(1e-9) is already expired when the session polls it.
    for (int k = 0; k < 3; ++k) {
      const mc::Progress p = session->resume(Budget(1e-9));
      EXPECT_EQ(p.result.verdict, Verdict::Unknown);
      EXPECT_FALSE(p.done);
      EXPECT_FALSE(p.advanced);
      EXPECT_EQ(p.bound, 0);
      EXPECT_EQ(p.result.steps, 0);
    }
    // The three empty slices left the session intact: a real resume still
    // reaches the one-shot verdict — so every engine demonstrably
    // produces its verdict after >= 3 budget slices.
    const auto [fin, slices] = resumeToCompletion(*session, 60.0);
    EXPECT_TRUE(fin.done);
    EXPECT_EQ(fin.result.verdict, engine->check(inst.net).verdict);
  }
}

// ----- sliced == one-shot, for every engine ----------------------------------

TEST(Session, ResumeInSlicesMatchesOneShotOnRandomModels) {
  util::Random rng(20260728);
  const auto engines = mc::engineNames();
  int multiSlice = 0;
  for (int round = 0; round < 12; ++round) {
    const int latches = 3 + static_cast<int>(rng.below(3));  // 3..5
    const int inputs = 1 + static_cast<int>(rng.below(2));   // 1..2
    const Network net = randomNetwork(rng, latches, inputs);
    for (const std::string& name : engines) {
      SCOPED_TRACE(name + " round " + std::to_string(round));
      const auto engine = mc::makeEngine(name);
      const auto oneShot = engine->check(net);

      const auto session = engine->start(net);
      const auto [sliced, slices] = resumeToCompletion(*session, 0.0005);
      if (slices > 1) ++multiSlice;

      ASSERT_TRUE(sliced.done);
      EXPECT_EQ(sliced.result.verdict, oneShot.verdict);
      EXPECT_EQ(sliced.result.steps, oneShot.steps);
      if (sliced.result.verdict == Verdict::Unsafe &&
          sliced.result.cex.has_value()) {
        EXPECT_TRUE(mc::replayHitsBad(net, *sliced.result.cex));
      }
    }
  }
  // The suite as a whole must actually have exercised mid-flight pauses
  // (individual tiny models may finish inside their first slice).
  EXPECT_GT(multiSlice, 0);
}

TEST(Session, ResumeInSlicesMatchesOneShotOnGeneratedFamilies) {
  // Heavier than the random models: many fixpoint iterations, real
  // sweeping work, so sub-millisecond slices force many mid-iteration
  // pauses (interrupted SAT solves, retried pre-images).
  const struct {
    const char* family;
    int width;
    bool safe;
  } kCases[] = {{"mult", 6, true}, {"mult", 4, false}, {"queue", 3, true}};
  for (const auto& c : kCases) {
    const auto inst = circuits::makeInstance(c.family, c.width, c.safe);
    for (const std::string& name : {std::string("cbq-reach"),
                                    std::string("bdd-bwd"),
                                    std::string("k-induction")}) {
      SCOPED_TRACE(std::string(c.family) + std::to_string(c.width) +
                   (c.safe ? "_safe " : "_unsafe ") + name);
      const auto engine = mc::makeEngine(name);
      const auto oneShot = engine->check(inst.net);

      const auto session = engine->start(inst.net);
      const auto [sliced, slices] = resumeToCompletion(*session, 0.001);
      ASSERT_TRUE(sliced.done);
      EXPECT_EQ(sliced.result.verdict, oneShot.verdict);
      EXPECT_EQ(sliced.result.steps, oneShot.steps);
      if (sliced.result.verdict == Verdict::Unsafe &&
          sliced.result.cex.has_value()) {
        EXPECT_TRUE(mc::replayHitsBad(inst.net, *sliced.result.cex));
      }
    }
  }
}

TEST(Session, SlicedRunPausesManyTimesOnRealWork) {
  // mult6_safe takes ~100ms of fixpoint+sweeping for cbq-reach; 1ms
  // slices therefore guarantee a deep pause/resume trail, and the bound
  // telemetry must be monotone across it.
  const auto inst = circuits::makeInstance("mult", 6, true);
  const auto engine = mc::makeEngine("cbq-reach");
  const auto session = engine->start(inst.net);
  int slices = 0;
  int lastBound = 0;
  mc::Progress p;
  for (;;) {
    p = session->resume(Budget(0.001));
    ++slices;
    EXPECT_GE(p.bound, lastBound);
    lastBound = p.bound;
    if (p.done) break;
    ASSERT_LT(slices, 200000);
  }
  EXPECT_EQ(p.result.verdict, Verdict::Safe);
  EXPECT_GE(slices, 3);
  EXPECT_GT(p.effort, 0u);
}

// ----- finished sessions are final -------------------------------------------

TEST(Session, DoneReportIsIdempotent) {
  const auto inst = circuits::makeInstance("counter", 4, false);
  const auto engine = mc::makeEngine("bmc");
  const auto session = engine->start(inst.net);
  const auto [fin, slices] = resumeToCompletion(*session, 60.0);
  ASSERT_TRUE(fin.done);
  ASSERT_EQ(fin.result.verdict, Verdict::Unsafe);
  const mc::Progress again = session->resume();
  EXPECT_TRUE(again.done);
  EXPECT_EQ(again.result.verdict, fin.result.verdict);
  EXPECT_EQ(again.result.steps, fin.result.steps);
  EXPECT_EQ(again.result.seconds, fin.result.seconds);
  ASSERT_TRUE(again.result.cex.has_value());
  EXPECT_TRUE(mc::replayHitsBad(inst.net, *again.result.cex));
}

// ----- the time-sliced portfolio ---------------------------------------------

/// Slice-schedule options on the raw circuit (no preprocessing), so the
/// engines — not the prep pipeline — settle every instance.
portfolio::PortfolioOptions sliceOptions(int workers = 1) {
  portfolio::PortfolioOptions opts;
  opts.schedule = portfolio::ScheduleMode::Slice;
  opts.sliceWorkers = workers;
  opts.prep.enabled = false;
  return opts;
}

TEST(TimeSlice, AgreesWithGroundTruthSingleWorker) {
  const struct {
    const char* family;
    int width;
    bool safe;
  } kCases[] = {{"counter", 4, true},
                {"counter", 4, false},
                {"mult", 4, true},
                {"mult", 4, false}};
  for (const auto& c : kCases) {
    const auto inst = circuits::makeInstance(c.family, c.width, c.safe);
    SCOPED_TRACE(inst.net.name);
    portfolio::PortfolioOptions opts = sliceOptions();
    opts.timeLimitSeconds = 120.0;
    const auto res = portfolio::PortfolioRunner(opts).run(inst.net);
    EXPECT_EQ(res.best.verdict, inst.expected);
    ASSERT_NE(res.winner(), nullptr);
    if (res.best.verdict == Verdict::Unsafe && res.best.cex.has_value()) {
      EXPECT_TRUE(mc::replayHitsBad(inst.net, *res.best.cex));
    }
    // Exactly one winner, and every granted slice is accounted for.
    int winners = 0;
    for (const auto& run : res.runs) winners += run.winner ? 1 : 0;
    EXPECT_EQ(winners, 1);
  }
}

TEST(TimeSlice, AgreesWithRacingRunnerOnRandomModels) {
  util::Random rng(987654321);
  for (int round = 0; round < 10; ++round) {
    const Network net = randomNetwork(rng, 4, 2);
    portfolio::PortfolioOptions opts = sliceOptions();
    opts.engines = {"cbq-reach", "bdd-bwd", "bmc", "k-induction"};
    opts.timeLimitSeconds = 60.0;

    opts.schedule = portfolio::ScheduleMode::Race;
    const auto race = portfolio::PortfolioRunner(opts).run(net);

    opts.schedule = portfolio::ScheduleMode::Slice;
    const auto slice = portfolio::PortfolioRunner(opts).run(net);

    SCOPED_TRACE("round " + std::to_string(round));
    // Both definitive: they must agree. (These models are tiny, so both
    // schedules always produce a definitive verdict within the budget.)
    ASSERT_NE(race.best.verdict, Verdict::Unknown);
    ASSERT_NE(slice.best.verdict, Verdict::Unknown);
    EXPECT_EQ(slice.best.verdict, race.best.verdict);
    EXPECT_EQ(slice.best.stats.count("portfolio.verdict_conflicts"), 0);
  }
}

TEST(TimeSlice, MultiWorkerAgrees) {
  const auto safeInst = circuits::makeInstance("mult", 6, true);
  const auto unsafeInst = circuits::makeInstance("mult", 6, false);
  for (const auto* inst : {&safeInst, &unsafeInst}) {
    portfolio::PortfolioOptions opts = sliceOptions(3);
    opts.timeLimitSeconds = 120.0;
    const auto res = portfolio::PortfolioRunner(opts).run(inst->net);
    EXPECT_EQ(res.best.verdict, inst->expected);
  }
}

TEST(TimeSlice, SingleEngineSessionStillWins) {
  const auto inst = circuits::makeInstance("counter", 5, false);
  portfolio::PortfolioOptions opts = sliceOptions();
  opts.engines = {"bmc"};
  opts.timeLimitSeconds = 120.0;
  const auto res = portfolio::PortfolioRunner(opts).run(inst.net);
  EXPECT_EQ(res.best.verdict, Verdict::Unsafe);
  ASSERT_TRUE(res.best.cex.has_value());
  EXPECT_TRUE(mc::replayHitsBad(inst.net, *res.best.cex));
  EXPECT_EQ(res.runs.size(), 1u);
  EXPECT_TRUE(res.runs[0].winner);
}

TEST(TimeSlice, LoneSessionIsNeverPaused) {
  // One session on one worker: nothing waits for the worker, so the
  // session keeps the whole budget — pausing it would cut the paper's
  // per-pre-image sweep and DC/ODC simplification short for nothing.
  const auto inst = circuits::makeInstance("counter", 7, false);
  portfolio::PortfolioOptions opts = sliceOptions();
  opts.engines = {"cbq-reach"};
  opts.timeLimitSeconds = 120.0;
  const auto res = portfolio::PortfolioRunner(opts).run(inst.net);
  EXPECT_EQ(res.best.verdict, Verdict::Unsafe);
  ASSERT_EQ(res.runs.size(), 1u);
  EXPECT_EQ(res.runs[0].slices, 1);
}

TEST(TimeSlice, RaceNeverPausesASession) {
  // Race is one worker per engine: no session ever waits for a worker,
  // so none is paused. The winner runs exactly one slice; a rival runs
  // at most one, and none at all when the winner finished before the
  // rival's worker first ran — it is then reported cancelled.
  const auto inst = circuits::makeInstance("counter", 5, false);
  portfolio::PortfolioOptions opts = sliceOptions();
  opts.schedule = portfolio::ScheduleMode::Race;
  opts.engines = {"cbq-reach", "bmc", "bdd-bwd"};
  opts.timeLimitSeconds = 120.0;
  const auto res = portfolio::PortfolioRunner(opts).run(inst.net);
  EXPECT_EQ(res.best.verdict, Verdict::Unsafe);
  ASSERT_NE(res.winner(), nullptr);
  EXPECT_EQ(res.winner()->slices, 1) << res.winner()->engine;
  for (const auto& run : res.runs) {
    EXPECT_LE(run.slices, 1) << run.engine;
    if (run.slices == 0) {
      EXPECT_TRUE(run.cancelled) << run.engine;
    }
  }
}

TEST(TimeSlice, SessionsGetEqualShares) {
  // Three engines share one worker for 6 s. Each resume goes to the
  // session that has run least, so no engine runs more than a few times
  // as long as another: bdd-bwd, which commits bounds fastest, is not
  // starved (on a fast host it even wins inside the budget).
  const auto inst = circuits::makeInstance("counter", 16, false);
  portfolio::PortfolioOptions opts = sliceOptions();
  opts.engines = {"cbq-reach", "bdd-bwd", "hybrid-reach"};
  opts.timeLimitSeconds = 6.0;
  const auto res = portfolio::PortfolioRunner(opts).run(inst.net);
  EXPECT_NE(res.best.verdict, Verdict::Safe);
  double least = res.runs.front().seconds;
  for (const auto& run : res.runs) least = std::min(least, run.seconds);
  for (const auto& run : res.runs) {
    EXPECT_LE(run.seconds, 3.0 * least) << run.engine;
  }
}

TEST(TimeSlice, LongStepFinishesInFewSlices) {
  // hybrid-reach redoes its interrupted phase-1 quantification after a
  // pause. Each slice lasts as long as the session has run so far, so
  // the redone work stays bounded and the step completes after a
  // logarithmic number of slices, also under a slow (sanitizer) build.
  // Fixed 50 ms slices never complete it here.
  const auto inst = circuits::makeInstance("arbiter", 16, true);
  portfolio::PortfolioOptions opts = sliceOptions();
  opts.engines = {"hybrid-reach", "bdd-bwd"};
  opts.timeLimitSeconds = 120.0;
  const auto res = portfolio::PortfolioRunner(opts).run(inst.net);
  EXPECT_EQ(res.best.verdict, Verdict::Safe);
  ASSERT_NE(res.winner(), nullptr);
  EXPECT_LE(res.winner()->slices, 16) << res.winner()->engine;
}

TEST(TimeSlice, ExpiredBudgetReportsUnknown) {
  const auto inst = circuits::makeInstance("mult", 8, true);
  portfolio::PortfolioOptions opts = sliceOptions();
  opts.timeLimitSeconds = 1e-9;  // expired before the first slice
  const auto res = portfolio::PortfolioRunner(opts).run(inst.net);
  EXPECT_EQ(res.best.verdict, Verdict::Unknown);
  EXPECT_EQ(res.winner(), nullptr);
}

TEST(TimeSlice, RejectsUnknownEngine) {
  portfolio::PortfolioOptions opts = sliceOptions();
  opts.engines = {"no-such-engine"};
  EXPECT_THROW(portfolio::PortfolioRunner{opts}, std::invalid_argument);
}

// ----- dense assignment satellites -------------------------------------------

TEST(DenseAssignment, MatchesInitVector) {
  util::Random rng(42);
  for (int round = 0; round < 20; ++round) {
    const Network net = randomNetwork(rng, 5, 2);
    const auto dense = net.initAssignmentDense();
    ASSERT_EQ(dense.size(), net.varBound());
    for (std::size_t i = 0; i < net.stateVars.size(); ++i)
      EXPECT_EQ(dense[net.stateVars[i]], net.init[i]);
    for (const VarId v : net.inputVars) EXPECT_FALSE(dense[v]);
  }
}

TEST(DenseAssignment, BuilderSetNextOfStillTargetsTheRightLatch) {
  mc::NetworkBuilder b("setNextOf");
  const Lit l0 = b.addLatch(false);
  const Lit in = b.addInput();
  const Lit l1 = b.addLatch(true);
  b.setNextOf(l1, l0);
  b.setNextOf(l0, in);
  b.setBad(l1);
  const Network net = b.finish();
  EXPECT_EQ(net.next[0], in);
  EXPECT_EQ(net.next[1], l0);
  EXPECT_EQ(net.init[1], true);
}

}  // namespace
}  // namespace cbq
