// Randomized soundness sweep: every engine is compared against an
// explicit-state BFS referee on randomly generated sequential networks.
// This is the strongest oracle in the suite — the referee enumerates the
// entire (tiny) state space, so any wrong verdict from any engine is a
// soundness bug, full stop.

#include <gtest/gtest.h>

#include <queue>

#include "circuits/suite.hpp"
#include "helpers.hpp"
#include "mc/engines.hpp"
#include "mc/network.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

using aig::Lit;
using aig::VarId;
using mc::Network;
using mc::Verdict;

/// Random sequential network: `latches` state bits, `inputs` free bits,
/// random next-state cones and a random bad cone.
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
  // Bias the bad cone so both verdicts occur with decent frequency: a
  // random function conjoined with one state literal.
  const Lit raw = test::randomFormula(g, rng, vars, 6);
  b.setBad(g.mkAnd(raw, state[rng.below(static_cast<std::uint64_t>(
                       latches))] ^ rng.flip()));
  return b.finish();
}

/// Explicit-state BFS over all 2^latches states and 2^inputs input
/// vectors. Returns Unsafe iff some reachable state has an input making
/// bad true, and the minimal depth at which that happens.
std::pair<Verdict, int> explicitStateCheck(const Network& net) {
  const int latches = static_cast<int>(net.numLatches());
  const int inputs = static_cast<int>(net.numInputs());

  auto assignmentFor = [&](std::uint32_t s, std::uint32_t in) {
    std::unordered_map<VarId, bool> a;
    for (int i = 0; i < latches; ++i)
      a.emplace(net.stateVars[static_cast<std::size_t>(i)],
                ((s >> i) & 1) != 0);
    for (int i = 0; i < inputs; ++i)
      a.emplace(net.inputVars[static_cast<std::size_t>(i)],
                ((in >> i) & 1) != 0);
    return a;
  };

  std::uint32_t initState = 0;
  for (int i = 0; i < latches; ++i)
    if (net.init[static_cast<std::size_t>(i)]) initState |= 1u << i;
  std::vector<int> depth(std::size_t{1} << latches, -1);
  std::queue<std::uint32_t> queue;
  depth[initState] = 0;
  queue.push(initState);
  while (!queue.empty()) {
    const std::uint32_t s = queue.front();
    queue.pop();
    for (std::uint32_t in = 0; in < (1u << inputs); ++in) {
      const auto a = assignmentFor(s, in);
      if (net.aig.evaluate(net.bad, a)) return {Verdict::Unsafe, depth[s]};
      std::uint32_t t = 0;
      for (int i = 0; i < latches; ++i)
        if (net.aig.evaluate(net.next[static_cast<std::size_t>(i)], a))
          t |= 1u << i;
      if (depth[t] < 0) {
        depth[t] = depth[s] + 1;
        queue.push(t);
      }
    }
  }
  return {Verdict::Safe, 0};
}

class RandomModels : public ::testing::TestWithParam<int> {};

TEST_P(RandomModels, AllEnginesMatchExplicitStateReferee) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const int latches = 2 + static_cast<int>(rng.below(3));  // 2..4
  const int inputs = 1 + static_cast<int>(rng.below(2));   // 1..2
  const Network net = randomNetwork(rng, latches, inputs);
  const auto [truth, cexDepth] = explicitStateCheck(net);

  for (auto& engine : mc::makeAllEngines()) {
    const auto res = engine->check(net);
    if (res.verdict == Verdict::Unknown) {
      // Bounded engines may give up on Safe instances only; the random
      // state graphs here are tiny, so a bug within depth 128 can never
      // be missed.
      EXPECT_EQ(truth, Verdict::Safe)
          << engine->name() << " unknown on an unsafe model";
      continue;
    }
    EXPECT_EQ(res.verdict, truth) << engine->name();
    if (res.verdict == Verdict::Unsafe && res.cex.has_value()) {
      EXPECT_TRUE(mc::replayHitsBad(net, *res.cex)) << engine->name();
      EXPECT_GE(static_cast<int>(res.cex->length()), cexDepth + 1)
          << engine->name() << " beat the minimal counterexample depth";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModels, ::testing::Range(0, 25));

TEST(RandomModels, RefereeAgreesWithKnownFamilies) {
  // Sanity-check the referee itself against instances whose verdicts and
  // depths are known by construction.
  {
    const auto inst = circuits::makeInstance("counter", 3, false);
    const auto [v, d] = explicitStateCheck(inst.net);
    EXPECT_EQ(v, Verdict::Unsafe);
    EXPECT_EQ(d, 7);
  }
  {
    const auto inst = circuits::makeInstance("counter", 3, true);
    EXPECT_EQ(explicitStateCheck(inst.net).first, Verdict::Safe);
  }
  {
    const auto inst = circuits::makeInstance("peterson", 0, false);
    const auto [v, d] = explicitStateCheck(inst.net);
    EXPECT_EQ(v, Verdict::Unsafe);
    EXPECT_EQ(d, 4);
  }
}

}  // namespace
}  // namespace cbq
