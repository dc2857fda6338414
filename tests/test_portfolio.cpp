// The portfolio layer: cooperative budgets/cancellation, the racing
// runner, and the batch scheduler. The key guarantees under test:
//  * a CancelToken stops a long-running engine promptly (not at the next
//    coarse time check — budgets are polled inside every loop);
//  * the racing winner's verdict agrees with a sequential engine run;
//  * batch results are deterministic and land in input order regardless
//    of worker interleaving.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "circuits/io.hpp"
#include "circuits/suite.hpp"
#include "helpers.hpp"
#include "mc/engines.hpp"
#include "portfolio/budget.hpp"
#include "portfolio/report.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/scheduler.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace cbq {
namespace {

using aig::Lit;
using mc::Network;
using mc::Verdict;
using portfolio::Budget;
using portfolio::CancelToken;

// ----- Budget semantics ------------------------------------------------------

TEST(Budget, UnlimitedNeverFires) {
  const Budget b;
  EXPECT_FALSE(b.exhausted());
  EXPECT_FALSE(b.cancelled());
  EXPECT_FALSE(b.timedOut());
  EXPECT_FALSE(b.nodesExceeded(std::size_t{1} << 60));
}

TEST(Budget, TokenCancelIsSticky) {
  CancelToken token;
  const Budget b(0.0, 0, &token);
  EXPECT_FALSE(b.exhausted());
  token.cancel();
  EXPECT_TRUE(b.cancelled());
  EXPECT_TRUE(b.exhausted());
  token.reset();
  EXPECT_FALSE(b.exhausted());
}

TEST(Budget, TinyDeadlineExpires) {
  const Budget b(1e-9);
  EXPECT_TRUE(b.timedOut());
  EXPECT_TRUE(b.exhausted());
}

TEST(Budget, TightenedTakesTheMinimum) {
  const Budget loose(3600.0);
  EXPECT_FALSE(loose.exhausted());
  EXPECT_TRUE(loose.tightened(1e-9).exhausted());
  // Tightening with a longer allowance keeps the original deadline.
  const Budget tight(1e-9);
  EXPECT_TRUE(tight.tightened(3600.0).exhausted());
  // Non-positive means "no extra limit".
  EXPECT_FALSE(loose.tightened(0.0).exhausted());
}

TEST(Budget, NodeLimit) {
  const Budget b(0.0, 1000);
  EXPECT_FALSE(b.nodesExceeded(1000));
  EXPECT_TRUE(b.nodesExceeded(1001));
  EXPECT_FALSE(b.exhausted());  // node pressure is polled separately
}

// ----- cancellation stops engines promptly ----------------------------------

/// Runs `engineName` on a problem whose sequential completion takes far
/// longer than the test; cancels shortly after launch and checks the
/// engine came back fast with Unknown. The 30s budget deadline is a
/// backstop so a broken CancelToken fails the test instead of hanging it.
void expectPromptCancel(const std::string& engineName, const Network& net) {
  CancelToken token;
  const Budget budget(30.0, 0, &token);
  mc::CheckResult res;
  util::Timer timer;
  std::thread runner([&] {
    auto engine = mc::makeEngine(engineName);
    ASSERT_NE(engine, nullptr);
    res = engine->check(net, budget);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  token.cancel();
  runner.join();
  EXPECT_EQ(res.verdict, Verdict::Unknown) << engineName;
  // Generous bound (TSan runs slow) yet far below the 30s/60s backstops.
  EXPECT_LT(timer.seconds(), 15.0) << engineName;
}

TEST(Cancellation, StopsBackwardReachPromptly) {
  // ~2^15 backward iterations sequentially — minutes of work.
  expectPromptCancel("cbq-reach",
                     circuits::makeInstance("evencount", 16, true).net);
}

TEST(Cancellation, StopsBmcInsideSolveCalls) {
  // Safe instance: BMC never finds a bug and keeps deepening; the cancel
  // must land inside a monolithic solve via the solver interrupt.
  mc::BmcOptions opts;
  opts.maxDepth = 1 << 20;
  const Network net = circuits::makeInstance("evencount", 14, true).net;
  CancelToken token;
  const Budget budget(30.0, 0, &token);
  mc::CheckResult res;
  util::Timer timer;
  std::thread runner([&] {
    mc::Bmc bmc(opts);
    res = bmc.check(net, budget);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  token.cancel();
  runner.join();
  EXPECT_EQ(res.verdict, Verdict::Unknown);
  EXPECT_LT(timer.seconds(), 15.0);
}

TEST(Cancellation, StopsBddTraversalPromptly) {
  expectPromptCancel("bdd-bwd",
                     circuits::makeInstance("evencount", 16, true).net);
}

// ----- the portfolio runner --------------------------------------------------

/// Random sequential network, same construction as test_random_models.
Network randomNetwork(util::Random& rng, int latches, int inputs) {
  mc::NetworkBuilder b("random");
  std::vector<Lit> state;
  for (int i = 0; i < latches; ++i) state.push_back(b.addLatch(rng.flip()));
  for (int i = 0; i < inputs; ++i) b.addInput();
  aig::Aig& g = b.aig();
  const int vars = latches + inputs;
  for (int i = 0; i < latches; ++i)
    b.setNext(static_cast<std::size_t>(i),
              test::randomFormula(g, rng, vars, 8));
  const Lit raw = test::randomFormula(g, rng, vars, 6);
  b.setBad(g.mkAnd(raw, state[rng.below(static_cast<std::uint64_t>(
                       latches))] ^ rng.flip()));
  return b.finish();
}

TEST(PortfolioRunner, RejectsUnknownEngineNames) {
  portfolio::PortfolioOptions opts;
  opts.engines = {"cbq-reach", "no-such-engine"};
  EXPECT_THROW(portfolio::PortfolioRunner{opts}, std::invalid_argument);
}

TEST(PortfolioRunner, WinnerMatchesSequentialVerdictOnRandomModels) {
  const portfolio::PortfolioRunner runner{portfolio::PortfolioOptions{}};
  for (int seed = 0; seed < 12; ++seed) {
    util::Random rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
    const int latches = 2 + static_cast<int>(rng.below(3));
    const int inputs = 1 + static_cast<int>(rng.below(2));
    const Network net = randomNetwork(rng, latches, inputs);

    // Sequential referee: the paper's engine is complete on these tiny
    // state spaces.
    const auto seq = mc::CircuitQuantReach().check(net);
    ASSERT_NE(seq.verdict, Verdict::Unknown) << "seed " << seed;

    const auto pr = runner.run(net);
    EXPECT_EQ(pr.best.verdict, seq.verdict) << "seed " << seed;
    // The prep pipeline may settle a tiny model outright (constant bad
    // cone / step-0 violation); then no engine ran and nobody "won".
    if (pr.prep.decided) {
      EXPECT_EQ(pr.best.engine, "prep") << "seed " << seed;
    } else {
      ASSERT_NE(pr.winner(), nullptr) << "seed " << seed;
    }
    EXPECT_EQ(pr.best.stats.count("portfolio.verdict_conflicts"), 0)
        << "seed " << seed;
    // An accepted Unsafe must carry a replay-checked counterexample
    // whenever the winning engine produces traces.
    if (pr.best.verdict == Verdict::Unsafe && pr.best.cex.has_value()) {
      EXPECT_TRUE(mc::replayHitsBad(net, *pr.best.cex)) << "seed " << seed;
    }
  }
}

TEST(PortfolioRunner, SingleEngineSetBehavesSequentially) {
  portfolio::PortfolioOptions opts;
  opts.engines = {"bmc"};
  const portfolio::PortfolioRunner runner(opts);
  const auto inst = circuits::makeInstance("counter", 3, false);
  const auto pr = runner.run(inst.net);
  EXPECT_EQ(pr.best.verdict, Verdict::Unsafe);
  ASSERT_EQ(pr.runs.size(), 1u);
  EXPECT_TRUE(pr.runs[0].winner);
  EXPECT_EQ(pr.runs[0].engine, "bmc");
}

// ----- the batch scheduler ---------------------------------------------------

std::vector<portfolio::BatchProblem> suiteProblems() {
  std::vector<portfolio::BatchProblem> problems;
  for (const bool safe : {true, false}) {
    for (const auto& family :
         {"counter", "gray", "ring", "arbiter", "traffic", "lfsr", "queue",
          "peterson"}) {
      auto inst = circuits::makeInstance(family, 3, safe);
      std::string name = inst.family + (safe ? "_safe" : "_unsafe");
      problems.push_back(
          {std::move(name), /*path=*/"", std::move(inst.net)});
    }
  }
  return problems;
}

TEST(BatchScheduler, DeterministicAndAgreesWithExpectedVerdicts) {
  portfolio::BatchOptions opts;
  opts.jobs = 4;
  opts.portfolio.timeLimitSeconds = 60.0;
  const portfolio::BatchScheduler scheduler(opts);

  const auto runOnce = [&] { return scheduler.run(suiteProblems()); };
  const auto first = runOnce();
  const auto second = runOnce();

  ASSERT_EQ(first.problems.size(), 16u);
  ASSERT_EQ(second.problems.size(), first.problems.size());
  EXPECT_EQ(first.errors, 0);
  EXPECT_EQ(first.unknown, 0);
  for (std::size_t i = 0; i < first.problems.size(); ++i) {
    const auto& p = first.problems[i];
    // Results land in input order regardless of worker interleaving.
    EXPECT_EQ(p.index, i);
    EXPECT_EQ(p.name, second.problems[i].name);
    // Verdicts are a function of the problem, not of scheduling.
    EXPECT_EQ(p.verdict, second.problems[i].verdict) << p.name;
    const bool expectSafe = p.name.find("_unsafe") == std::string::npos;
    EXPECT_EQ(p.verdict, expectSafe ? Verdict::Safe : Verdict::Unsafe)
        << p.name;
    EXPECT_FALSE(p.winnerEngine.empty()) << p.name;
  }
}

TEST(BatchScheduler, LoadsFilesAndIsolatesParseFailures) {
  const std::string dir = ::testing::TempDir() + "cbq_batch";
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/good_safe.aag");
    circuits::writeAag(circuits::makeCounter(3, true), out);
  }
  {
    // Binary AIGER goes through the std::ios::binary open path.
    std::ofstream out(dir + "/good_unsafe.aig", std::ios::binary);
    circuits::writeAigBinary(circuits::makeCounter(3, false), out);
  }
  {
    std::ofstream out(dir + "/broken.aag");
    out << "this is not an AIGER file\n";
  }

  const auto files =
      portfolio::BatchScheduler::collectCircuitFiles({dir});
  ASSERT_EQ(files.size(), 3u);

  portfolio::BatchOptions opts;
  opts.jobs = 2;
  opts.portfolio.timeLimitSeconds = 60.0;
  const auto summary = portfolio::BatchScheduler(opts).runFiles(files);
  ASSERT_EQ(summary.problems.size(), 3u);
  EXPECT_EQ(summary.errors, 1);
  EXPECT_EQ(summary.safe, 1);
  EXPECT_EQ(summary.unsafe, 1);
  for (const auto& p : summary.problems) {
    if (p.name == "broken.aag") {
      EXPECT_FALSE(p.error.empty());
      EXPECT_EQ(p.verdict, Verdict::Unknown);
    } else {
      EXPECT_TRUE(p.error.empty()) << p.error;
    }
  }
}

// ----- report writers --------------------------------------------------------

TEST(Reports, JsonAndCsvCarryTheBatch) {
  portfolio::BatchOptions opts;
  opts.jobs = 2;
  const auto summary = portfolio::BatchScheduler(opts).run([] {
    std::vector<portfolio::BatchProblem> problems;
    auto safe = circuits::makeInstance("counter", 3, true);
    auto buggy = circuits::makeInstance("counter", 3, false);
    problems.push_back({"c3_safe", "", std::move(safe.net)});
    problems.push_back({"c3_unsafe", "", std::move(buggy.net)});
    return problems;
  }());

  std::ostringstream json;
  portfolio::writeJson(summary, json);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"total\": 2"), std::string::npos);
  EXPECT_NE(j.find("\"name\": \"c3_safe\""), std::string::npos);
  EXPECT_NE(j.find("\"verdict\": \"SAFE\""), std::string::npos);
  EXPECT_NE(j.find("\"verdict\": \"UNSAFE\""), std::string::npos);
  EXPECT_NE(j.find("\"engines\": ["), std::string::npos);

  std::ostringstream csv;
  portfolio::writeCsv(summary, csv);
  std::istringstream lines(csv.str());
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) ++rows;
  EXPECT_EQ(rows, 3);  // header + one row per problem
  EXPECT_NE(csv.str().find("c3_unsafe"), std::string::npos);
  EXPECT_NE(csv.str().find("UNSAFE"), std::string::npos);
}

}  // namespace
}  // namespace cbq
