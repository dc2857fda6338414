// Network model and benchmark-family tests: builder invariants, family
// structure, and hand-written trace replays that pin down the intended
// temporal semantics of each generator.

#include <gtest/gtest.h>

#include "circuits/families.hpp"
#include "circuits/suite.hpp"
#include "mc/network.hpp"
#include "mc/result.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

using circuits::makeCounter;
using circuits::makeGrayPair;
using circuits::makeQueue;
using circuits::makeTokenRing;
using mc::Network;
using mc::Trace;

TEST(NetworkBuilder, BasicShape) {
  mc::NetworkBuilder b("t");
  const aig::Lit l0 = b.addLatch(true);
  const aig::Lit in = b.addInput();
  b.setNext(0, b.aig().mkAnd(l0, in));
  b.setBad(l0);
  const Network net = b.finish();
  EXPECT_EQ(net.numLatches(), 1u);
  EXPECT_EQ(net.numInputs(), 1u);
  EXPECT_TRUE(net.wellFormed());
  EXPECT_TRUE(net.init[0]);
}

TEST(NetworkBuilder, SetNextOfResolvesLatch) {
  mc::NetworkBuilder b("t");
  const aig::Lit l0 = b.addLatch(false);
  const aig::Lit l1 = b.addLatch(false);
  b.setNextOf(l1, l0);
  b.setNextOf(l0, !l1);
  b.setBad(b.aig().mkAnd(l0, l1));
  const Network net = b.finish();
  EXPECT_EQ(net.next[1], l0);
  EXPECT_EQ(net.next[0], !l1);
}

TEST(Families, StructuralInventory) {
  struct Expect {
    std::string family;
    int width;
    std::size_t latches;
    std::size_t inputs;
  };
  const Expect cases[] = {
      {"counter", 4, 4, 1}, {"evencount", 4, 4, 1},
      {"gray", 3, 6, 1},    {"ring", 5, 5, 1},
      {"arbiter", 3, 3, 3}, {"traffic", 0, 4, 1}, {"lfsr", 5, 5, 1},
      {"queue", 3, 3, 2},   {"peterson", 0, 5, 3},
  };
  for (const auto& c : cases) {
    for (const bool safe : {true, false}) {
      const auto inst = circuits::makeInstance(c.family, c.width, safe);
      EXPECT_TRUE(inst.net.wellFormed()) << c.family;
      EXPECT_EQ(inst.net.numInputs(), c.inputs) << c.family;
      if (c.family == "queue" && !safe) {
        EXPECT_EQ(inst.net.numLatches(), c.latches + 1);  // full-flag latch
      } else {
        EXPECT_EQ(inst.net.numLatches(), c.latches) << c.family;
      }
      EXPECT_FALSE(inst.net.bad.isConstant()) << c.family;
    }
  }
}

TEST(Families, UnknownFamilyThrows) {
  EXPECT_THROW(circuits::makeInstance("nonsense", 3, true),
               std::invalid_argument);
}

TEST(Families, SuiteCoversEveryFamilyBothVerdicts) {
  const auto suite = circuits::standardSuite();
  std::set<std::pair<std::string, bool>> seen;
  for (const auto& inst : suite)
    seen.emplace(inst.family, inst.expected == mc::Verdict::Safe);
  for (const auto& f : circuits::familyNames()) {
    EXPECT_TRUE(seen.contains({f, true})) << f;
    EXPECT_TRUE(seen.contains({f, false})) << f;
  }
}

/// Builds a trace that drives a single input to fixed values.
Trace constantInputTrace(const Network& net, aig::VarId input, bool value,
                         int steps) {
  Trace t;
  for (int i = 0; i < steps; ++i) {
    std::unordered_map<aig::VarId, bool> in;
    for (const aig::VarId v : net.inputVars) in.emplace(v, false);
    in.insert_or_assign(input, value);
    t.inputs.push_back(in);
  }
  return t;
}

TEST(FamilySemantics, BuggyCounterOverflowsAtExpectedDepth) {
  const Network net = makeCounter(3, /*safe=*/false);
  // Count 0..7: bad (==7) observed at the 8th step's evaluation, i.e.
  // after 7 increments.
  const auto en = net.inputVars[0];
  EXPECT_FALSE(mc::replayHitsBad(net, constantInputTrace(net, en, true, 7)));
  EXPECT_TRUE(mc::replayHitsBad(net, constantInputTrace(net, en, true, 8)));
}

TEST(FamilySemantics, SafeCounterNeverOverflows) {
  const Network net = makeCounter(3, /*safe=*/true);
  const auto en = net.inputVars[0];
  for (int len = 1; len <= 20; ++len)
    EXPECT_FALSE(mc::replayHitsBad(net, constantInputTrace(net, en, true, len)))
        << len;
}

TEST(FamilySemantics, CounterHoldsWithoutEnable) {
  const Network net = makeCounter(3, /*safe=*/false);
  const auto en = net.inputVars[0];
  EXPECT_FALSE(
      mc::replayHitsBad(net, constantInputTrace(net, en, false, 50)));
}

TEST(FamilySemantics, BuggyGrayDivergesUnderEnable) {
  const Network net = makeGrayPair(3, /*safe=*/false);
  const auto en = net.inputVars[0];
  bool hit = false;
  for (int len = 1; len <= 8 && !hit; ++len)
    hit = mc::replayHitsBad(net, constantInputTrace(net, en, true, len));
  EXPECT_TRUE(hit);
}

TEST(FamilySemantics, SafeGrayTracksForever) {
  const Network net = makeGrayPair(3, /*safe=*/true);
  const auto en = net.inputVars[0];
  EXPECT_FALSE(mc::replayHitsBad(net, constantInputTrace(net, en, true, 40)));
}

TEST(FamilySemantics, BuggyRingDoublesToken) {
  const Network net = makeTokenRing(4, /*safe=*/false);
  const auto inject = net.inputVars[0];
  EXPECT_TRUE(mc::replayHitsBad(net, constantInputTrace(net, inject, true, 2)));
  EXPECT_FALSE(
      mc::replayHitsBad(net, constantInputTrace(net, inject, false, 30)));
}

TEST(FamilySemantics, BuggyQueueOverflowsOnSustainedPush) {
  const Network net = makeQueue(3, /*safe=*/false);
  const auto inc = net.inputVars[0];
  bool hit = false;
  for (int len = 1; len <= 12 && !hit; ++len)
    hit = mc::replayHitsBad(net, constantInputTrace(net, inc, true, len));
  EXPECT_TRUE(hit);
}

TEST(FamilySemantics, SafeQueueSaturates) {
  const Network net = makeQueue(3, /*safe=*/true);
  const auto inc = net.inputVars[0];
  EXPECT_FALSE(mc::replayHitsBad(net, constantInputTrace(net, inc, true, 30)));
}

TEST(Replay, EmptyTraceNeverHits) {
  const Network net = makeCounter(3, false);
  EXPECT_FALSE(mc::replayHitsBad(net, Trace{}));
}

TEST(Replay, MissingInputsDefaultToFalse) {
  const Network net = makeCounter(3, false);
  Trace t;
  t.inputs.resize(5);  // empty maps: enable = 0 -> no counting
  EXPECT_FALSE(mc::replayHitsBad(net, t));
}

TEST(Replay, OneSimulationPerStepMatchesPerLatchEvaluation) {
  // Network::step and the replay referee simulate all next-state cones
  // (and bad) at once; a per-latch Aig::evaluate walk is the reference.
  util::Random rng(7);
  for (const auto& f : circuits::familyNames()) {
    const auto inst = circuits::makeInstance(f, 4, false);
    const Network& net = inst.net;
    std::vector<bool> state = net.init;
    Trace t;
    for (int step = 0; step < 12; ++step) {
      std::unordered_map<aig::VarId, bool> in;
      for (const aig::VarId v : net.inputVars) in.emplace(v, rng.flip());
      t.inputs.push_back(in);
      std::unordered_map<aig::VarId, bool> a = in;
      for (std::size_t i = 0; i < net.numLatches(); ++i)
        a.emplace(net.stateVars[i], state[i]);
      const bool bad = net.aig.evaluate(net.bad, a);
      EXPECT_EQ(mc::replayHitsBad(net, t), bad) << f << " step " << step;
      std::vector<bool> succ(net.numLatches());
      for (std::size_t i = 0; i < net.numLatches(); ++i)
        succ[i] = net.aig.evaluate(net.next[i], a);
      ASSERT_EQ(net.step(state, in), succ) << f << " step " << step;
      state = std::move(succ);
    }
  }
}

TEST(WidthSweep, ProducesRequestedWidths) {
  const auto sweep = circuits::widthSweep("counter", {2, 3, 4}, true);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_EQ(sweep[0].net.numLatches(), 2u);
  EXPECT_EQ(sweep[2].net.numLatches(), 4u);
}

}  // namespace
}  // namespace cbq
