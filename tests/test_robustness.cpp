// Robustness layer: the malformed-input corpus (every file must die with
// a clean ParseError, never a crash or an unbounded allocation), the
// deterministic fault injector, the portfolio's engine-crash containment
// barriers, and graceful degradation at budget-exhaustion edges.
//
// Fault-armed tests restore the injector in TearDown: the injector is
// process-global, so a leaked armed site would poison every later test.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "circuits/io.hpp"
#include "circuits/suite.hpp"
#include "mc/engines.hpp"
#include "portfolio/budget.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/scheduler.hpp"
#include "prep/pipeline.hpp"
#include "util/fault.hpp"

namespace cbq {
namespace {

namespace fs = std::filesystem;
using circuits::ParseError;
using mc::Verdict;
using portfolio::Budget;
using util::FaultInjector;
using util::FaultMode;
using util::FaultSpec;
using util::InjectedFault;

// ----- malformed-input corpus ------------------------------------------------

#ifndef CBQ_CORPUS_DIR
#define CBQ_CORPUS_DIR "tests/corpus"
#endif

TEST(Corpus, EveryFileFailsWithParseError) {
  const fs::path dir(CBQ_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".aag" && ext != ".aig" && ext != ".bench") continue;
    ++checked;
    const std::string path = entry.path().string();
    try {
      circuits::readCircuitFile(path);
      FAIL() << path << ": expected ParseError, parsed successfully";
    } catch (const ParseError& e) {
      // The contract: a diagnostic that names the file, so a batch log
      // points straight at the offender.
      EXPECT_NE(std::string(e.what()).find(entry.path().filename().string()),
                std::string::npos)
          << path << ": " << e.what();
    } catch (const std::exception& e) {
      FAIL() << path << ": wrong exception type: " << e.what();
    }
  }
  // Refuses to pass vacuously if the corpus dir moves or empties out.
  EXPECT_GE(checked, 15u);
}

TEST(Corpus, TextErrorsCarryLineNumbers) {
  // Line-oriented failures must say which line; spot-check a few.
  for (const char* name :
       {"truncated_header.aag", "missing_latch.aag", "bad_and_line.aag",
        "cyclic_ands.aag", "bad_latch_reset.aag"}) {
    const std::string path = (fs::path(CBQ_CORPUS_DIR) / name).string();
    try {
      circuits::readCircuitFile(path);
      FAIL() << path << ": expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
          << path << ": " << e.what();
    }
  }
}

// ----- reader hardening against hostile headers ------------------------------

TEST(ReaderHardening, OversizedAagCountsRejectedBeforeAllocation) {
  // 10-digit counts must be refused up front: the old reader would have
  // tried a multi-gigabyte std::vector before noticing the file is 30
  // bytes long.
  std::istringstream in("aag 999999999 999999998 0 0 1\n");
  EXPECT_THROW(circuits::readAag(in, "t"), ParseError);
}

TEST(ReaderHardening, AagHeaderMustCoverDeclaredObjects) {
  // M is the max variable index; I+L+A distinct variables cannot fit
  // under a smaller M.
  std::istringstream in("aag 2 2 1 1 1\n");
  EXPECT_THROW(circuits::readAag(in, "t"), ParseError);
}

TEST(ReaderHardening, OversizedBinaryCountsRejected) {
  std::istringstream in("aig 300000000 100000000 100000000 0 100000000\n");
  EXPECT_THROW(circuits::readAigBinary(in, "t"), ParseError);
}

TEST(ReaderHardening, BinaryHeaderOverflowCannotPassConsistencyCheck) {
  // i + l + a summed in 32 bits could wrap to m; the check is 64-bit.
  std::istringstream in("aig 0 4294967295 1 0 0\n");
  EXPECT_THROW(circuits::readAigBinary(in, "t"), ParseError);
}

TEST(ReaderHardening, TruncatedBinaryAndSection) {
  // Header promises one AND; the byte stream ends mid-varint.
  std::istringstream in("aig 3 1 1 1 1\n2\n6\n\x80");
  EXPECT_THROW(circuits::readAigBinary(in, "t"), ParseError);
}

TEST(ReaderHardening, NonMonotoneDeltaRejected)
{
  // delta0 = 7 > lhs = 6: decoding would underflow the literal.
  std::istringstream in(std::string("aig 3 1 1 1 1\n2\n6\n\x07\x00", 19));
  EXPECT_THROW(circuits::readAigBinary(in, "t"), ParseError);
}

// ----- the fault injector ----------------------------------------------------

/// Disarms on both ends: a previous test's leak must not fail this one,
/// and this one must not leak into the next.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().disarm(); }
  void TearDown() override { FaultInjector::instance().disarm(); }
};

TEST_F(FaultTest, DisarmedSitesCostNothingAndNeverFire) {
  EXPECT_FALSE(FaultInjector::armedFast());
  CBQ_FAULT_POINT("bdd.alloc");  // must be a no-op, not a throw
  EXPECT_FALSE(CBQ_FAULT_FAIL("sat.solve"));
}

TEST_F(FaultTest, SpecParserAcceptsTheGrammar) {
  auto& inj = FaultInjector::instance();
  std::string err;
  EXPECT_TRUE(inj.arm("bdd.alloc", &err)) << err;
  EXPECT_TRUE(inj.arm("sat.solve:3:fail", &err)) << err;
  EXPECT_TRUE(inj.arm("engine.resume:prob=0.5:nonstd", &err)) << err;
  EXPECT_TRUE(inj.arm("prep.pass:stall:stall=50", &err)) << err;
  EXPECT_TRUE(inj.arm("aig.grow:nth=7:oom", &err)) << err;
  EXPECT_EQ(inj.stats().size(), 5u);
}

TEST_F(FaultTest, SpecParserRejectsGarbage) {
  auto& inj = FaultInjector::instance();
  std::string err;
  EXPECT_FALSE(inj.arm("", &err));
  EXPECT_FALSE(inj.arm("site:prob=1.5", &err));
  EXPECT_FALSE(inj.arm("site:prob=0", &err));
  EXPECT_FALSE(inj.arm("site:0", &err));
  EXPECT_FALSE(inj.arm("site:frobnicate", &err));
  EXPECT_NE(err.find("frobnicate"), std::string::npos);
  EXPECT_FALSE(FaultInjector::armedFast());  // nothing got armed
}

TEST_F(FaultTest, NthTriggerFiresExactlyOnce) {
  auto& inj = FaultInjector::instance();
  FaultSpec spec;
  spec.site = "bdd.alloc";
  spec.nth = 3;
  inj.armSpec(spec);
  EXPECT_NO_THROW(inj.hit("bdd.alloc"));
  EXPECT_NO_THROW(inj.hit("bdd.alloc"));
  EXPECT_THROW(inj.hit("bdd.alloc"), InjectedFault);
  EXPECT_NO_THROW(inj.hit("bdd.alloc"));  // one-shot, not every-3rd
  EXPECT_EQ(inj.fireCount(), 1u);
  const auto stats = inj.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].hits, 4u);
  EXPECT_EQ(stats[0].fires, 1u);
}

TEST_F(FaultTest, ProbabilisticFiringIsSeedDeterministic) {
  auto& inj = FaultInjector::instance();
  auto runSchedule = [&] {
    inj.disarm();
    inj.seed(1234);
    FaultSpec spec;
    spec.site = "sat.solve";
    spec.mode = FaultMode::Fail;
    spec.prob = 0.5;
    inj.armSpec(spec);
    std::string pattern;
    for (int k = 0; k < 64; ++k)
      pattern += inj.shouldFail("sat.solve") ? '1' : '0';
    return pattern;
  };
  const std::string a = runSchedule();
  const std::string b = runSchedule();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find('1'), std::string::npos);  // p=0.5 over 64 draws
  EXPECT_NE(a.find('0'), std::string::npos);
}

TEST_F(FaultTest, ModesThrowTheRightThing) {
  auto& inj = FaultInjector::instance();
  FaultSpec oom;
  oom.site = "aig.grow";
  oom.mode = FaultMode::Oom;
  inj.armSpec(oom);
  EXPECT_THROW(inj.hit("aig.grow"), std::bad_alloc);

  FaultSpec nonstd;
  nonstd.site = "engine.resume";
  nonstd.mode = FaultMode::NonStd;
  inj.armSpec(nonstd);
  EXPECT_THROW(inj.hit("engine.resume"), int);
}

TEST_F(FaultTest, FailModeOnlyAnswersShouldFail) {
  auto& inj = FaultInjector::instance();
  FaultSpec spec;
  spec.site = "sat.solve";
  spec.mode = FaultMode::Fail;
  inj.armSpec(spec);
  EXPECT_NO_THROW(inj.hit("sat.solve"));      // fail-mode never throws
  EXPECT_TRUE(inj.shouldFail("sat.solve"));   // first hit fires
  EXPECT_FALSE(inj.shouldFail("sat.solve"));  // one-shot
}

// ----- engine containment (race + slice) -------------------------------------

/// Arms `spec` against a small safe instance and runs the portfolio (the
/// default engines unless `engines` names others).
portfolio::PortfolioResult runFaulted(
    const std::string& spec, portfolio::ScheduleMode mode,
    std::vector<std::string> engines = {}) {
  auto& inj = FaultInjector::instance();
  inj.seed(7);
  std::string err;
  EXPECT_TRUE(inj.arm(spec, &err)) << err;
  portfolio::PortfolioOptions opts;
  opts.engines = std::move(engines);
  opts.timeLimitSeconds = 30.0;
  opts.schedule = mode;
  opts.prep.enabled = false;
  const portfolio::PortfolioRunner runner(opts);
  return runner.run(circuits::makeInstance("counter", 3, true).net);
}

class ContainmentTest : public FaultTest {};

TEST_F(ContainmentTest, OneCrashIsQuarantinedSurvivorsDecideRace) {
  // One-shot throw: exactly one engine's resume blows up; the rest of
  // the portfolio must still produce the real verdict.
  const auto res =
      runFaulted("engine.resume:1:throw", portfolio::ScheduleMode::Race);
  EXPECT_EQ(res.best.verdict, Verdict::Safe);
  EXPECT_EQ(res.engineFailures, 1);
  EXPECT_FALSE(res.allEnginesFailed);
  int failedRuns = 0;
  for (const auto& run : res.runs)
    if (run.failed) {
      ++failedRuns;
      EXPECT_EQ(run.verdict, Verdict::Unknown);
      EXPECT_NE(run.error.find("injected fault"), std::string::npos)
          << run.error;
    }
  EXPECT_EQ(failedRuns, 1);
}

TEST_F(ContainmentTest, OneCrashIsQuarantinedSurvivorsDecideSlice) {
  const auto res =
      runFaulted("engine.resume:1:throw", portfolio::ScheduleMode::Slice);
  EXPECT_EQ(res.best.verdict, Verdict::Safe);
  EXPECT_EQ(res.engineFailures, 1);
  EXPECT_FALSE(res.allEnginesFailed);
}

TEST_F(ContainmentTest, AllCrashesDegradeToUnknownNotAbort) {
  const auto res = runFaulted("engine.resume:prob=1.0:throw",
                              portfolio::ScheduleMode::Race);
  EXPECT_EQ(res.best.verdict, Verdict::Unknown);
  EXPECT_TRUE(res.allEnginesFailed);
  EXPECT_EQ(res.engineFailures, static_cast<int>(res.runs.size()));
  EXPECT_GT(res.best.stats.count("portfolio.all_engines_failed"), 0);
}

TEST_F(ContainmentTest, ForeignExceptionsAreContainedToo) {
  // `throw 42` is not a std::exception; only the catch (...) barrier
  // stands between it and std::terminate on a worker thread.
  const auto res = runFaulted("engine.resume:prob=1.0:nonstd",
                              portfolio::ScheduleMode::Race);
  EXPECT_EQ(res.best.verdict, Verdict::Unknown);
  EXPECT_TRUE(res.allEnginesFailed);
  for (const auto& run : res.runs)
    EXPECT_EQ(run.error, "non-standard exception");
}

TEST_F(ContainmentTest, FakeOomIsContained) {
  // Both racers must allocate BDD nodes before they can answer, so the
  // one-shot fake bad_alloc fires whatever the thread timing (cbq-reach
  // proves counter3's small cones by simulation and allocates none).
  const auto res = runFaulted("bdd.alloc:1:oom", portfolio::ScheduleMode::Race,
                              {"bdd-bwd", "bdd-fwd"});
  // Whichever BDD engine hit the fake bad_alloc is quarantined; the other
  // settles the instance.
  EXPECT_EQ(res.best.verdict, Verdict::Safe);
  EXPECT_GE(res.engineFailures, 1);
}

// ----- containment on the sequential entry path ------------------------------

/// Arms `spec` and runs the sequential single-engine entry path.
mc::CheckResult checkFaulted(const std::string& spec, const char* engine,
                             const mc::Network& net) {
  auto& inj = FaultInjector::instance();
  inj.seed(7);
  std::string err;
  EXPECT_TRUE(inj.arm(spec, &err)) << err;
  return prep::checkWithPrep(*mc::makeEngine(engine), net);
}

TEST_F(ContainmentTest, SeqPrepFailureFallsBackToTheOriginalNetwork) {
  // A pass blowing up costs the reduction, not the verdict: the engine
  // checks the original network, and its trace replays there.
  for (const bool safe : {true, false}) {
    const auto inst = circuits::makeInstance("haystack", 3, safe);
    SCOPED_TRACE(inst.net.name);
    const auto res = checkFaulted("prep.pass:1:throw", "cbq-reach", inst.net);
    EXPECT_EQ(res.verdict, inst.expected);
    EXPECT_EQ(res.stats.count("portfolio.prep_failures"), 1);
    if (!safe) {
      ASSERT_TRUE(res.cex.has_value());
      EXPECT_TRUE(mc::replayHitsBad(inst.net, *res.cex));
    }
    FaultInjector::instance().disarm();
  }
}

TEST_F(ContainmentTest, SeqEngineCrashAnswersUnknownInsteadOfThrowing) {
  const auto inst = circuits::makeInstance("counter", 3, true);
  mc::CheckResult res;
  EXPECT_NO_THROW(
      res = checkFaulted("engine.resume:1:throw", "cbq-reach", inst.net));
  EXPECT_EQ(res.verdict, Verdict::Unknown);
  EXPECT_EQ(res.engine, "cbq-reach");
  EXPECT_EQ(res.stats.count("portfolio.engine_failures"), 1);
  EXPECT_EQ(res.stats.count("portfolio.all_engines_failed"), 1);
}

// ----- batch worker isolation ------------------------------------------------

class BatchIsolationTest : public FaultTest {};

TEST_F(BatchIsolationTest, OneBadFileNeverLosesTheOthersResults) {
  // [good, corrupt, good]: the corrupt one lands as an error IN ORDER,
  // both neighbours still get verdicts.
  const auto tmp = fs::temp_directory_path() / "cbq_robustness_batch";
  fs::create_directories(tmp);
  const auto good1 = tmp / "good1.aag";
  const auto good2 = tmp / "good2.aag";
  {
    std::ofstream o1(good1);
    circuits::writeAag(circuits::makeInstance("counter", 3, true).net, o1);
    std::ofstream o2(good2);
    circuits::writeAag(circuits::makeInstance("counter", 3, false).net, o2);
  }
  const std::string bad =
      (fs::path(CBQ_CORPUS_DIR) / "missing_latch.aag").string();

  portfolio::BatchOptions opts;
  opts.jobs = 3;
  opts.portfolio.timeLimitSeconds = 30.0;
  const portfolio::BatchScheduler batch(opts);
  const auto summary = batch.runFiles(
      {good1.string(), bad, good2.string()}, nullptr);

  ASSERT_EQ(summary.problems.size(), 3u);
  EXPECT_EQ(summary.problems[0].verdict, Verdict::Safe);
  EXPECT_TRUE(summary.problems[0].error.empty());
  EXPECT_FALSE(summary.problems[1].error.empty());
  EXPECT_NE(summary.problems[1].error.find("line "), std::string::npos);
  EXPECT_EQ(summary.problems[2].verdict, Verdict::Unsafe);
  EXPECT_TRUE(summary.problems[2].error.empty());
  EXPECT_EQ(summary.errors, 1);
  EXPECT_EQ(summary.safe, 1);
  EXPECT_EQ(summary.unsafe, 1);
  fs::remove_all(tmp);
}

TEST_F(BatchIsolationTest, RetriesAreCountedAndBounded) {
  // Every attempt fails (prob=1.0): with --retries 2 the scheduler makes
  // 1 + 2 attempts, records the retry count, and still returns Unknown
  // instead of looping or aborting.
  auto& inj = FaultInjector::instance();
  inj.seed(7);
  std::string err;
  ASSERT_TRUE(inj.arm("engine.resume:prob=1.0:throw", &err)) << err;

  portfolio::BatchOptions opts;
  opts.jobs = 1;
  opts.retries = 2;
  opts.portfolio.timeLimitSeconds = 30.0;
  opts.portfolio.prep.enabled = false;
  const portfolio::BatchScheduler batch(opts);
  std::vector<portfolio::BatchProblem> problems;
  problems.push_back(
      {"counter3", "", circuits::makeInstance("counter", 3, true).net});
  const auto summary = batch.run(std::move(problems), nullptr);

  ASSERT_EQ(summary.problems.size(), 1u);
  const auto& r = summary.problems[0];
  EXPECT_EQ(r.verdict, Verdict::Unknown);
  EXPECT_EQ(r.retries, 2);
  EXPECT_TRUE(r.allEnginesFailed);
}

TEST_F(BatchIsolationTest, TransientFailureRecoversOnRetry) {
  // The fault is one-shot per site hit counter — the retry's fresh
  // sessions run fault-free and the real verdict comes back. Single
  // engine so the first attempt has no surviving rival.
  auto& inj = FaultInjector::instance();
  std::string err;
  ASSERT_TRUE(inj.arm("engine.resume:1:throw", &err)) << err;

  portfolio::BatchOptions opts;
  opts.jobs = 1;
  opts.retries = 1;
  opts.portfolio.engines = {"bmc"};
  opts.portfolio.timeLimitSeconds = 30.0;
  opts.portfolio.prep.enabled = false;
  const portfolio::BatchScheduler batch(opts);
  std::vector<portfolio::BatchProblem> problems;
  problems.push_back(
      {"counter3", "", circuits::makeInstance("counter", 3, false).net});
  const auto summary = batch.run(std::move(problems), nullptr);

  ASSERT_EQ(summary.problems.size(), 1u);
  const auto& r = summary.problems[0];
  EXPECT_EQ(r.verdict, Verdict::Unsafe);
  EXPECT_EQ(r.retries, 1);
  EXPECT_TRUE(r.error.empty());
}

TEST_F(BatchIsolationTest, FallbackEnginesTakeOverOnRetry) {
  // First attempt: a single engine that always crashes. Retry switches
  // to the fallback set, which is healthy and solves the problem.
  auto& inj = FaultInjector::instance();
  std::string err;
  // bdd.alloc only fires inside BDD engines; make the primary a BDD
  // engine and fall back to a SAT engine the fault cannot reach.
  ASSERT_TRUE(inj.arm("bdd.alloc:prob=1.0:throw", &err)) << err;

  portfolio::BatchOptions opts;
  opts.jobs = 1;
  opts.retries = 1;
  opts.portfolio.engines = {"bdd-bwd"};
  opts.fallbackEngines = {"bmc"};
  opts.portfolio.timeLimitSeconds = 30.0;
  opts.portfolio.prep.enabled = false;
  const portfolio::BatchScheduler batch(opts);
  std::vector<portfolio::BatchProblem> problems;
  problems.push_back(
      {"counter3", "", circuits::makeInstance("counter", 3, false).net});
  const auto summary = batch.run(std::move(problems), nullptr);

  ASSERT_EQ(summary.problems.size(), 1u);
  const auto& r = summary.problems[0];
  EXPECT_EQ(r.verdict, Verdict::Unsafe);
  EXPECT_EQ(r.retries, 1);
  ASSERT_EQ(r.runs.size(), 1u);
  EXPECT_EQ(r.runs[0].engine, "bmc");
}

// ----- budget-exhaustion edges -----------------------------------------------

TEST(BudgetEdges, ExpiredBudgetAtStartReturnsUnknownEverywhere) {
  // An engine handed a budget that is ALREADY exhausted must come back
  // Unknown immediately — not crash, not run anyway. The instance is big
  // enough (minutes of sequential work) that a definitive verdict could
  // only mean the budget was ignored.
  const mc::Network net = circuits::makeInstance("evencount", 16, true).net;
  for (const std::string& name : portfolio::defaultPortfolio()) {
    auto engine = mc::makeEngine(name);
    ASSERT_NE(engine, nullptr) << name;
    const auto res = engine->check(net, Budget(1e-9));
    EXPECT_EQ(res.verdict, Verdict::Unknown) << name;
  }
}

TEST(BudgetEdges, MemCeilingIsStickyAndSharedAcrossCopies) {
  Budget b;
  b.withRssLimit(1);  // any live process exceeds one byte of RSS
  const Budget tightened = b.tightened(3600.0);
  // The /proc read is rate-limited; poll past the stride.
  bool hit = false;
  for (int k = 0; k < 256 && !hit; ++k) hit = tightened.exhausted();
  EXPECT_TRUE(hit);
  // The tightened COPY tripped it, yet the original sees the diagnostic:
  // the ceiling state is shared, one problem = one ceiling.
  EXPECT_TRUE(b.memLimitHit());
  EXPECT_TRUE(b.exhausted());
}

TEST(BudgetEdges, RssCeilingDegradesPortfolioToUnknown) {
  portfolio::PortfolioOptions opts;
  opts.rssLimitBytes = 1;
  opts.timeLimitSeconds = 30.0;
  opts.prep.enabled = false;
  const portfolio::PortfolioRunner runner(opts);
  const auto res = runner.run(circuits::makeInstance("counter", 6, true).net);
  EXPECT_EQ(res.best.verdict, Verdict::Unknown);
  EXPECT_TRUE(res.memLimitHit);
  EXPECT_GT(res.best.stats.count("portfolio.mem_limit_hits"), 0);
}

TEST(BudgetEdges, SessionDoneIsIdempotent) {
  // After a session reports done, further resumes return the same final
  // progress — a scheduler bug that over-resumes must not change the
  // verdict or crash.
  const mc::Network net = circuits::makeInstance("counter", 3, true).net;
  auto engine = mc::makeEngine("cbq-reach");
  ASSERT_NE(engine, nullptr);
  auto session = engine->start(net);
  mc::Progress p;
  for (int k = 0; k < 1000 && !p.done; ++k) p = session->resume(Budget(30.0));
  ASSERT_TRUE(p.done);
  const Verdict verdict = p.result.verdict;
  EXPECT_EQ(verdict, Verdict::Safe);
  for (int k = 0; k < 3; ++k) {
    const mc::Progress again = session->resume(Budget(30.0));
    EXPECT_TRUE(again.done);
    EXPECT_EQ(again.result.verdict, verdict);
  }
}

TEST(BudgetEdges, NodeLimitDegradesBddEngineToUnknown) {
  // A node budget far below what the image computation needs: the BDD
  // engine must bail to Unknown through the cooperative path.
  const mc::Network net = circuits::makeInstance("counter", 8, true).net;
  auto engine = mc::makeEngine("bdd-bwd");
  ASSERT_NE(engine, nullptr);
  const auto res = engine->check(net, Budget(30.0, 8));
  EXPECT_EQ(res.verdict, Verdict::Unknown);
}

}  // namespace
}  // namespace cbq
