// Engine integration tests — the heart of the reproduction's validation:
// every engine must produce the ground-truth verdict on every suite
// instance, every counterexample must replay, the engines must agree
// pairwise, and the §4 preprocessing must be sound.

#include <gtest/gtest.h>

#include "circuits/suite.hpp"
#include "mc/engines.hpp"
#include "mc/unroller.hpp"
#include "prep/pipeline.hpp"
#include "sweep/signatures.hpp"

namespace cbq {
namespace {

using mc::CheckResult;
using mc::Verdict;

/// Unsafe counterexample depths known by construction (trace length - 1).
int expectedCexDepth(const circuits::Instance& inst) {
  if (inst.family == "counter") return (1 << inst.width) - 1;
  if (inst.family == "haystack") return (1 << inst.width) - 1;
  if (inst.family == "evencount") return (1 << (inst.width - 1)) - 1;
  if (inst.family == "queue") return (1 << inst.width) - 1;
  return -1;  // not pinned for the others
}

class EngineSuite
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(EngineSuite, VerdictMatchesGroundTruth) {
  const auto [engineIdx, instIdx] = GetParam();
  auto engines = mc::makeAllEngines();
  ASSERT_LT(static_cast<std::size_t>(engineIdx), engines.size());
  auto suite = circuits::standardSuite();
  ASSERT_LT(instIdx, suite.size());
  auto& inst = suite[instIdx];
  auto& engine = *engines[static_cast<std::size_t>(engineIdx)];

  // BMC keeps deepening on some safe instances until the budget stops it.
  const CheckResult res = engine.check(inst.net, portfolio::Budget(60.0));

  if (res.verdict == Verdict::Unknown) {
    // Only the bounded engine may come back empty-handed, and only on
    // safe instances (it can never miss a real bug inside its depth).
    EXPECT_EQ(engine.name(), "bmc");
    EXPECT_EQ(inst.expected, Verdict::Safe)
        << engine.name() << " on " << inst.net.name;
    return;
  }
  EXPECT_EQ(res.verdict, inst.expected)
      << engine.name() << " on " << inst.net.name;

  if (res.verdict == Verdict::Unsafe) {
    // Every engine backs an Unsafe verdict with a replayable trace.
    ASSERT_TRUE(res.cex.has_value())
        << engine.name() << " reported Unsafe without a trace on "
        << inst.net.name;
    EXPECT_TRUE(mc::replayHitsBad(inst.net, *res.cex))
        << engine.name() << " produced a bogus trace on " << inst.net.name;
    const int depth = expectedCexDepth(inst);
    if (depth >= 0) {
      EXPECT_GE(static_cast<int>(res.cex->length()), depth + 1)
          << engine.name() << " found an impossibly short trace on "
          << inst.net.name;
    }
  }
}

std::string engineSuiteName(
    const ::testing::TestParamInfo<std::tuple<int, std::size_t>>& info) {
  static const char* names[] = {"cbq",  "cbqfwd", "bddbwd", "bddfwd",
                                "bmc",  "kind",   "allsat", "hybrid"};
  return std::string(names[std::get<0>(info.param)]) + "_inst" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, EngineSuite,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Range<std::size_t>(0, 34)),
    engineSuiteName);

TEST(Engines, SatEnginesFindMinimalDepthCounterexamples) {
  // BMC is depth-optimal; the backward engines count pre-image
  // iterations and must agree with it on frontier depth for Unsafe runs.
  const auto inst = circuits::makeInstance("counter", 3, false);
  mc::Bmc bmc;
  const auto bmcRes = bmc.check(inst.net);
  ASSERT_EQ(bmcRes.verdict, Verdict::Unsafe);
  EXPECT_EQ(bmcRes.steps, 7);

  mc::CircuitQuantReach reach;
  const auto reachRes = reach.check(inst.net);
  ASSERT_EQ(reachRes.verdict, Verdict::Unsafe);
  EXPECT_EQ(reachRes.steps, 7);
  ASSERT_TRUE(reachRes.cex.has_value());
  EXPECT_EQ(reachRes.cex->length(), 8u);
}

TEST(Engines, SafeFixpointDepthsAgreeBetweenAigAndBddBackward) {
  for (const char* family : {"ring", "arbiter", "peterson"}) {
    const auto inst = circuits::makeInstance(family, 4, true);
    mc::CircuitQuantReach aigEngine;
    mc::BddBackwardReach bddEngine;
    const auto a = aigEngine.check(inst.net);
    const auto b = bddEngine.check(inst.net);
    ASSERT_EQ(a.verdict, Verdict::Safe) << family;
    ASSERT_EQ(b.verdict, Verdict::Safe) << family;
    EXPECT_EQ(a.steps, b.steps) << family;
  }
}

TEST(Engines, StutteringDesignsKeepTheReachedSetOneFrontierWide) {
  // An enable input that holds state makes every pre-image contain the
  // reached set, so the reached set collapses to the pre-image instead of
  // growing an OR chain with the depth.
  for (const char* family : {"counter", "haystack"}) {
    const auto inst = circuits::makeInstance(family, 8, false);
    const auto res = prep::checkWithPrep(mc::CircuitQuantReach{}, inst.net);
    ASSERT_EQ(res.verdict, Verdict::Unsafe) << family;
    EXPECT_EQ(res.steps, expectedCexDepth(inst)) << family;
    EXPECT_GT(res.stats.count("reach.reached_collapses"), 0) << family;
    EXPECT_LE(res.stats.gauge("reach.max_reached_cone"),
              2 * res.stats.gauge("reach.max_frontier_cone"))
        << family;
  }
}

TEST(Engines, NonStutteringDesignsMatchBddBackward) {
  // No collapse applies where the pre-image does not subsume the reached
  // set; verdicts and depths must still be the BDD engine's.
  for (const char* family : {"lfsr", "ring"}) {
    for (const bool safe : {true, false}) {
      const auto inst = circuits::makeInstance(family, 5, safe);
      const auto a = mc::CircuitQuantReach{}.check(inst.net);
      const auto b = mc::BddBackwardReach{}.check(inst.net);
      ASSERT_EQ(a.verdict, inst.expected) << inst.net.name;
      EXPECT_EQ(a.verdict, b.verdict) << inst.net.name;
      EXPECT_EQ(a.steps, b.steps) << inst.net.name;
    }
  }
}

/// `width` latches, all reset to 0, bad when every latch is 1. shift:
/// latch 0 loads the input and latch i takes latch i-1, so all-ones is
/// first reached at depth `width`. Otherwise every latch holds its value
/// and all-ones is unreachable.
mc::Network allOnesRegister(int width, bool shift) {
  mc::NetworkBuilder b(shift ? "shift" : "hold");
  const aig::Lit in = b.addInput();
  std::vector<aig::Lit> latches;
  for (int i = 0; i < width; ++i) latches.push_back(b.addLatch(false));
  for (std::size_t i = 0; i < latches.size(); ++i)
    b.setNext(i, !shift ? latches[i] : i == 0 ? in : latches[i - 1]);
  b.setBad(b.aig().mkAndAll(latches));
  return b.finish();
}

TEST(Engines, SetQueriesUseTruthTablesOnlyBelowTheBound) {
  // cbq-reach's fixpoint queries are word loops over exhaustive truth
  // tables while their cones' support fits the bound, and SAT queries
  // past it. 16 latches put the hold register's one
  // fixpoint check and the shift register's first ones past the bound;
  // the verdicts and depths are the BDD engine's either way.
  constexpr int kWidth =
      static_cast<int>(sweep::Signatures::kExhaustiveMaxInputs) + 2;
  for (const bool shift : {true, false}) {
    const auto net = allOnesRegister(kWidth, shift);
    const auto bdd = mc::BddBackwardReach{}.check(net);
    ASSERT_EQ(bdd.verdict, shift ? Verdict::Unsafe : Verdict::Safe);
    const auto res = mc::CircuitQuantReach{}.check(net);
    ASSERT_EQ(res.verdict, bdd.verdict) << net.name;
    EXPECT_EQ(res.steps, bdd.steps) << net.name;
    const auto checks = res.stats.count("reach.fixpoint_checks");
    const auto simProofs = res.stats.count("reach.fixpoint_sim_proofs");
    if (shift) {
      EXPECT_GT(simProofs, 0);
      EXPECT_LT(simProofs, checks);
    } else {
      EXPECT_EQ(checks, 1);
      EXPECT_EQ(simProofs, 0);
    }
  }
  // Small supports throughout: no fixpoint query reaches SAT.
  for (const bool safe : {true, false}) {
    const auto inst = circuits::makeInstance("counter", 4, safe);
    const auto res = mc::CircuitQuantReach{}.check(inst.net);
    ASSERT_EQ(res.verdict, inst.expected) << inst.net.name;
    EXPECT_GT(res.stats.count("reach.fixpoint_checks"), 0) << inst.net.name;
    EXPECT_EQ(res.stats.count("reach.fixpoint_sim_proofs"),
              res.stats.count("reach.fixpoint_checks"))
        << inst.net.name;
  }
}

TEST(Engines, DeepBugPastTenThousandIterations) {
  // counter14's bug lies 16,383 pre-images deep. No fixpoint engine
  // counts its iterations, so bdd-bwd walks them all and returns a trace
  // that replays.
  const auto inst = circuits::makeInstance("counter", 14, false);
  const auto res = mc::BddBackwardReach{}.check(inst.net);
  ASSERT_EQ(res.verdict, Verdict::Unsafe);
  EXPECT_EQ(res.steps, 16'383);
  ASSERT_TRUE(res.cex.has_value());
  EXPECT_TRUE(mc::replayHitsBad(inst.net, *res.cex));
}

TEST(Engines, BmcDepthLimitYieldsUnknownOnDeepBug) {
  const auto inst = circuits::makeInstance("counter", 4, false);  // depth 15
  mc::BmcOptions opts;
  opts.maxDepth = 5;
  mc::Bmc engine(opts);
  EXPECT_EQ(engine.check(inst.net).verdict, Verdict::Unknown);
}

TEST(Engines, InductionWithSimplePathClosesRing) {
  // k-induction with its simple-path (state-distinct) constraints proves
  // the safe ring.
  const auto inst = circuits::makeInstance("ring", 4, true);
  const auto r = mc::KInduction().check(inst.net);
  EXPECT_EQ(r.verdict, Verdict::Safe);
}

TEST(Engines, BddNodeLimitGivesUnknown) {
  const auto inst = circuits::makeInstance("gray", 4, true);
  mc::BddReachOptions opts;
  opts.nodeLimit = 4;  // absurdly small
  mc::BddBackwardReach engine(opts);
  const auto r = engine.check(inst.net);
  EXPECT_EQ(r.verdict, Verdict::Unknown);
  EXPECT_GE(r.stats.count("bdd.node_limit_hits"), 1);
}

TEST(Engines, AllSatEnumerationCapGivesUnknown) {
  const auto inst = circuits::makeInstance("arbiter", 4, true);
  mc::AllSatReachOptions opts;
  opts.maxEnumPerImage = 0;
  mc::AllSatPreimageReach engine(opts);
  EXPECT_EQ(engine.check(inst.net).verdict, Verdict::Unknown);
}

TEST(Engines, CompactionDoesNotChangeVerdicts) {
  // The engine compacts after every committed iteration — the harshest
  // setting for the persistent session (a remap each time).
  mc::CircuitQuantReach engine;
  const auto safeInst = circuits::makeInstance("lfsr", 4, true);
  EXPECT_EQ(engine.check(safeInst.net).verdict, Verdict::Safe);
  const auto badInst = circuits::makeInstance("lfsr", 4, false);
  const auto bad = engine.check(badInst.net);
  EXPECT_EQ(bad.verdict, Verdict::Unsafe);
  EXPECT_GE(bad.stats.count("reach.compactions"), 1);
}

TEST(Preprocess, QuantifyingInputsPreservesVerdicts) {
  for (const char* family : {"arbiter", "ring", "traffic"}) {
    for (const bool safe : {true, false}) {
      const auto inst = circuits::makeInstance(family, 3, safe);
      const auto pre = mc::preprocessQuantifyInputs(inst.net);
      EXPECT_LE(pre.inputsAfter, pre.inputsBefore) << family;
      mc::Bmc bmc;
      const auto before = bmc.check(inst.net);
      const auto after = bmc.check(pre.net);
      EXPECT_EQ(before.verdict, after.verdict) << family << " safe=" << safe;
      if (before.verdict == Verdict::Unsafe) {
        EXPECT_EQ(before.steps, after.steps) << family;
      }
    }
  }
}

TEST(Preprocess, EliminatesInputsFromBadCone) {
  // The arbiter's bad cone reads every request input; quantification
  // should remove them all (bad becomes a pure state predicate).
  const auto inst = circuits::makeInstance("arbiter", 4, true);
  const auto pre = mc::preprocessQuantifyInputs(inst.net);
  EXPECT_EQ(pre.inputsBefore, 4u);
  EXPECT_EQ(pre.inputsAfter, 0u);
}

TEST(Unroller, DistinctConstraintForcesDifferentStates) {
  const auto inst = circuits::makeInstance("counter", 3, true);
  sat::Solver solver;
  mc::Unroller unroller(inst.net, solver);
  unroller.ensureFrame(1);
  unroller.assertInit();
  // Without enable the state repeats; demanding distinctness of frames
  // 0 and 1 plus enable=0 must be UNSAT.
  unroller.assertDistinct(0, 1);
  const sat::Lit noEnable[] = {
      !unroller.inputLit(0, inst.net.inputVars[0])};
  EXPECT_EQ(solver.solve(noEnable), sat::Status::Unsat);
  // With the enable free it is satisfiable (counting changes the state).
  EXPECT_EQ(solver.solve(), sat::Status::Sat);
}

TEST(Unroller, BadLitTracksSemantics) {
  const auto inst = circuits::makeInstance("counter", 2, false);
  sat::Solver solver;
  mc::Unroller unroller(inst.net, solver);
  unroller.assertInit();
  unroller.ensureFrame(3);
  // bad at frame 3 (count==3) requires enable at every step.
  const sat::Lit bad3[] = {unroller.badLit(3)};
  ASSERT_EQ(solver.solve(bad3), sat::Status::Sat);
  for (int k = 0; k < 3; ++k)
    EXPECT_TRUE(
        solver.modelTrue(unroller.inputLit(k, inst.net.inputVars[0])));
  // bad at frame 0 is impossible from the zero initial state.
  const sat::Lit bad0[] = {unroller.badLit(0)};
  EXPECT_EQ(solver.solve(bad0), sat::Status::Unsat);
}

TEST(Engines, ResultRecordsArePopulated) {
  const auto inst = circuits::makeInstance("traffic", 0, true);
  for (auto& engine : mc::makeAllEngines()) {
    const auto res = engine->check(inst.net);
    EXPECT_EQ(res.engine, engine->name());
    EXPECT_GE(res.seconds, 0.0);
    EXPECT_GE(res.steps, 0);
  }
}

}  // namespace
}  // namespace cbq
