// Additional engine-level tests: the forward circuit engine's specifics,
// the multiplier (BDD-killer) family, engine option plumbing, and trace
// details that the parameterized suite does not pin down.

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "circuits/families.hpp"
#include "circuits/suite.hpp"
#include "mc/engines.hpp"

namespace cbq {
namespace {

using mc::Verdict;

TEST(ForwardEngine, CountsForwardIterations) {
  // Forward reach on the buggy counter must walk 2^n - 1 images.
  const auto inst = circuits::makeInstance("counter", 3, false);
  mc::CircuitQuantForwardReach engine;
  const auto res = engine.check(inst.net);
  ASSERT_EQ(res.verdict, Verdict::Unsafe);
  EXPECT_EQ(res.steps, 7);
  ASSERT_TRUE(res.cex.has_value());
  EXPECT_EQ(res.cex->length(), 8u);
  EXPECT_TRUE(mc::replayHitsBad(inst.net, *res.cex));
}

TEST(ForwardEngine, SafeFixpointMatchesStateCount) {
  // The safe 3-bit counter visits 7 states; forward fixpoint at 7.
  const auto inst = circuits::makeInstance("counter", 3, true);
  mc::CircuitQuantForwardReach engine;
  const auto res = engine.check(inst.net);
  ASSERT_EQ(res.verdict, Verdict::Safe);
  EXPECT_EQ(res.steps, 7);
}

TEST(ForwardEngine, AgreesWithBddForwardOnDepths) {
  for (const char* family : {"ring", "traffic", "lfsr"}) {
    const auto inst = circuits::makeInstance(family, 4, true);
    mc::CircuitQuantForwardReach aigFwd;
    mc::BddForwardReach bddFwd;
    const auto a = aigFwd.check(inst.net);
    const auto b = bddFwd.check(inst.net);
    ASSERT_EQ(a.verdict, Verdict::Safe) << family;
    ASSERT_EQ(b.verdict, Verdict::Safe) << family;
    EXPECT_EQ(a.steps, b.steps) << family;
  }
}

TEST(Multiplier, MiddleBitBddExplodesWhileAigStaysQuadratic) {
  // The §1 motivation measured directly: the bad cone of mult(k) has an
  // O(k^2) AIG but its BDD grows out of any polynomial budget.
  const auto small = circuits::makeMultiplier(6, false);
  const auto large = circuits::makeMultiplier(16, false);
  EXPECT_LT(large.aig.numAnds(), 2000u);  // quadratic circuit

  bdd::BddManager tiny(200'000);
  EXPECT_NO_THROW(bdd::aigToBdd(small.aig, small.bad, tiny));
  bdd::BddManager alsoTiny(200'000);
  EXPECT_THROW(bdd::aigToBdd(large.aig, large.bad, alsoTiny),
               bdd::NodeLimitExceeded);
}

TEST(Multiplier, CircuitEngineProvesWhereBddCannot) {
  const auto inst = circuits::makeInstance("mult", 14, true);
  mc::CircuitQuantReach cbqEngine;
  const auto a = cbqEngine.check(inst.net);
  EXPECT_EQ(a.verdict, Verdict::Safe);

  mc::BddReachOptions bddOpts;
  bddOpts.nodeLimit = 100'000;
  mc::BddBackwardReach bddEngine(bddOpts);
  const auto b = bddEngine.check(inst.net);
  EXPECT_EQ(b.verdict, Verdict::Unknown);
  EXPECT_GE(b.stats.count("bdd.node_limit_hits"), 1);
}

TEST(Multiplier, BuggyVariantDepthIsWidthMinusOne) {
  const auto inst = circuits::makeInstance("mult", 5, false);
  mc::Bmc bmc;
  const auto res = bmc.check(inst.net);
  ASSERT_EQ(res.verdict, Verdict::Unsafe);
  EXPECT_EQ(res.steps, 4);
  ASSERT_TRUE(res.cex.has_value());
  EXPECT_TRUE(mc::replayHitsBad(inst.net, *res.cex));
}

TEST(EngineOptions, QuantOptionsReachTheQuantifier) {
  // Disabling everything must not change verdicts, only sizes/work.
  const auto inst = circuits::makeInstance("evencount", 4, true);
  mc::CircuitQuantReachOptions bare;
  bare.quant.mergePhase = false;
  bare.quant.optPhase = false;
  mc::CircuitQuantReach engine(bare);
  const auto res = engine.check(inst.net);
  EXPECT_EQ(res.verdict, Verdict::Safe);
  EXPECT_EQ(res.stats.count("merge.sat_checks"), 0);
  EXPECT_EQ(res.stats.count("opt.sat_checks"), 0);
  EXPECT_EQ(res.stats.count("merge.sim_proofs"), 0);
  EXPECT_EQ(res.stats.count("opt.sim_proofs"), 0);
  // With both phases on, the same run proves compare points.
  const auto full = mc::CircuitQuantReach{}.check(inst.net);
  EXPECT_EQ(full.verdict, Verdict::Safe);
  EXPECT_GT(full.stats.count("merge.sim_proofs") +
                full.stats.count("opt.sim_proofs"),
            0);
}

TEST(EngineOptions, TimeLimitProducesUnknownNotWrongAnswer) {
  const auto inst = circuits::makeInstance("evencount", 5, true);
  mc::CircuitQuantReach engine;
  const auto res = engine.check(inst.net, portfolio::Budget(1e-9));
  // Either it finished instantly (possible on a fast box for iteration 0)
  // or it reports Unknown; it must never report Unsafe.
  EXPECT_NE(res.verdict, Verdict::Unsafe);
}

TEST(EngineStats, BackwardEngineExposesWorkCounters) {
  const auto inst = circuits::makeInstance("evencount", 4, true);
  mc::CircuitQuantReach engine;
  const auto res = engine.check(inst.net);
  ASSERT_EQ(res.verdict, Verdict::Safe);
  EXPECT_GT(res.stats.count("reach.fixpoint_checks"), 0);
  EXPECT_GT(res.stats.count("quant.vars_attempted"), 0);
  EXPECT_GT(res.stats.gauge("reach.max_reached_cone"), 0.0);
}

TEST(Hybrid, ResidualVariablesGoToEnumeration) {
  // With an impossible growth bound every input aborts, so the hybrid
  // engine must fall back to pure enumeration — and still be right.
  const auto inst = circuits::makeInstance("arbiter", 3, true);
  mc::HybridReachOptions opts;
  opts.quant.growthLimit = 0.0;
  opts.quant.growthSlack = 0;
  opts.quant.abortRetries = 0;
  mc::HybridReach engine(opts);
  const auto res = engine.check(inst.net);
  EXPECT_EQ(res.verdict, Verdict::Safe);
  EXPECT_GT(res.stats.count("allsat.enumerations"), 0);
  EXPECT_GT(res.stats.count("hybrid.residual_vars"), 0);
}

TEST(AllSat, EnumerationCountsAreBoundedByStateSpace) {
  const auto inst = circuits::makeInstance("ring", 4, true);
  mc::AllSatPreimageReach engine;
  const auto res = engine.check(inst.net);
  ASSERT_EQ(res.verdict, Verdict::Safe);
  // Each enumeration covers >= 1 state; the ring has 2^4 states total.
  EXPECT_LE(res.stats.count("allsat.enumerations"), 64);
}

}  // namespace
}  // namespace cbq
