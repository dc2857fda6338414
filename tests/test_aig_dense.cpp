// Tests for the dense arena layer underneath the AIG manager: the
// open-addressed structural-hash table, the epoch-stamped rebuild memo,
// the VarId slot table, and compose() edge cases (empty and aliasing
// substitution maps) that exercise the shared scratch paths.

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/scratch.hpp"
#include "aig/strash.hpp"
#include "audit/audit.hpp"
#include "helpers.hpp"
#include "util/var_table.hpp"

namespace cbq {
namespace {

using aig::Aig;
using aig::Lit;
using aig::NodeId;
using aig::VarId;

// ----- StrashTable ---------------------------------------------------------

TEST(StrashTable, FindOnEmptyReturnsZero) {
  aig::StrashTable t(16);
  EXPECT_EQ(t.find(Lit(1, false), Lit(2, false)), 0u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(StrashTable, GrowsPastInitialCapacityAndKeepsAllEntries) {
  aig::StrashTable t(16);
  const std::size_t initialCap = t.capacity();
  constexpr std::size_t kEntries = 1000;
  for (std::size_t i = 0; i < kEntries; ++i) {
    const Lit a(static_cast<NodeId>(2 * i + 1), false);
    const Lit b(static_cast<NodeId>(2 * i + 2), true);
    ASSERT_EQ(t.find(a, b), 0u);
    t.insert(a, b, static_cast<NodeId>(i + 1));
  }
  EXPECT_EQ(t.size(), kEntries);
  EXPECT_GT(t.capacity(), initialCap);
  // Every entry survives the rehashes, and near-miss keys stay absent.
  for (std::size_t i = 0; i < kEntries; ++i) {
    const Lit a(static_cast<NodeId>(2 * i + 1), false);
    const Lit b(static_cast<NodeId>(2 * i + 2), true);
    EXPECT_EQ(t.find(a, b), static_cast<NodeId>(i + 1));
    EXPECT_EQ(t.find(a, !b), 0u);
  }
}

TEST(Aig, StrashGrowthPreservesDeduplication) {
  // Force the manager's table past its initial 1024 slots, then check
  // structural hashing still collapses identical pairs.
  Aig g;
  const std::size_t initialCap = g.strashCapacity();
  Lit acc = g.pi(0);
  for (VarId v = 1; v < 2000; ++v) acc = g.mkAnd(acc, g.pi(v));
  EXPECT_GT(g.strashCapacity(), initialCap);

  const std::size_t andsBefore = g.numAnds();
  // Rebuilding the same chain must hit the table on every step.
  Lit acc2 = g.pi(0);
  for (VarId v = 1; v < 2000; ++v) acc2 = g.mkAnd(acc2, g.pi(v));
  EXPECT_EQ(acc2, acc);
  EXPECT_EQ(g.numAnds(), andsBefore);
}

// ----- ScratchMemo ---------------------------------------------------------

TEST(ScratchMemo, ResetForgetsPreviousGeneration) {
  aig::ScratchMemo m;
  m.reset(8);
  m.put(3, Lit(5, true));
  EXPECT_TRUE(m.contains(3));
  EXPECT_EQ(m.at(3), Lit(5, true));
  EXPECT_FALSE(m.contains(4));
  m.reset(8);
  EXPECT_FALSE(m.contains(3));
}

TEST(ScratchMemo, EpochWrapAroundScrubsStaleStamps) {
  aig::ScratchMemo m;
  m.reset(8);
  m.put(2, Lit(9, false));
  // Park the counter at the maximum: the next reset wraps to 0, which
  // must scrub every stamp instead of reusing the value.
  m.forceEpochForTest(0xffffffffu);
  m.put(5, Lit(7, true));  // stamped with the pre-wrap epoch
  EXPECT_TRUE(m.contains(5));
  m.reset(8);
  EXPECT_EQ(m.epoch(), 1u);
  EXPECT_FALSE(m.contains(2));
  EXPECT_FALSE(m.contains(5));
  m.put(5, Lit(1, false));
  EXPECT_EQ(m.at(5), Lit(1, false));
}

TEST(VarTable, EpochWrapAroundScrubsStaleStamps) {
  util::VarTable<int> t;
  t.set(4, 42);
  t.forceEpochForTest(0xffffffffu);
  t.set(6, 7);
  t.clear();  // wraps
  EXPECT_EQ(t.epoch(), 1u);
  EXPECT_FALSE(t.contains(4));
  EXPECT_FALSE(t.contains(6));
  EXPECT_EQ(t.get(6, -1), -1);
  t.set(6, 9);
  EXPECT_EQ(t.at(6), 9);
}

TEST(Aig, MemoReuseAcrossManyRebuildsStaysCorrect) {
  // The manager reuses one memo across every cofactor/compose call; a
  // long alternating sequence would expose stale-entry leaks immediately.
  Aig g;
  util::Random rng(3);
  const Lit f = test::randomFormula(g, rng, 5, 40);
  for (int i = 0; i < 100; ++i) {
    const VarId v = static_cast<VarId>(i % 5);
    const Lit c0 = g.cofactor(f, v, false);
    const Lit c1 = g.cofactor(f, v, true);
    EXPECT_FALSE(g.dependsOn(c0, v));
    EXPECT_FALSE(g.dependsOn(c1, v));
  }
}

// ----- NodeMap -------------------------------------------------------------

TEST(Aig, TraversalsAgreeWithFreshWalksAcrossGrowthAndEpochWrap) {
  // coneAnds, coneSize, supportVars and dependsOn share the manager's
  // epoch marks and DFS stack. Each must agree with a walk of its own —
  // fresh visited set, fresh stack — while the manager grows between
  // calls and while the epoch counter wraps.
  util::Random rng(17);
  Aig g;
  std::vector<Lit> made;
  auto freshWalk = [&](std::span<const Lit> roots, std::set<NodeId>& ands,
                       std::set<VarId>& vars) {
    std::set<NodeId> seen;
    std::vector<NodeId> stack;
    for (const Lit r : roots) stack.push_back(r.node());
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      if (!seen.insert(n).second) continue;
      if (g.isPi(n)) vars.insert(g.piVar(n));
      if (!g.isAnd(n)) continue;
      ands.insert(n);
      stack.push_back(g.fanin0(n).node());
      stack.push_back(g.fanin1(n).node());
    }
  };
  for (int round = 0; round < 8; ++round) {
    made.push_back(test::randomFormula(g, rng, 10, 20 + 15 * round));
    if (round == 4) audit::Access::setEpoch(g, 0xffffffffu - 3);
    for (std::size_t i = 0; i < made.size(); ++i) {
      const Lit pair[] = {made[i], made[rng.below(made.size())]};
      for (const std::size_t count : {std::size_t{1}, std::size_t{2}}) {
        const std::span<const Lit> roots(pair, count);
        std::set<NodeId> ands;
        std::set<VarId> vars;
        freshWalk(roots, ands, vars);
        const auto order = g.coneAnds(roots);
        EXPECT_EQ(std::set<NodeId>(order.begin(), order.end()), ands);
        EXPECT_EQ(order.size(), ands.size());  // no node listed twice
        std::vector<std::size_t> pos(g.numNodes(), order.size());
        for (std::size_t k = 0; k < order.size(); ++k) pos[order[k]] = k;
        for (std::size_t k = 0; k < order.size(); ++k)
          for (const Lit fi : {g.fanin0(order[k]), g.fanin1(order[k])}) {
            if (g.isAnd(fi.node())) {
              EXPECT_LT(pos[fi.node()], k);
            }
          }
        EXPECT_EQ(g.coneSize(roots), ands.size());
        EXPECT_EQ(g.supportVars(roots),
                  std::vector<VarId>(vars.begin(), vars.end()));
        if (count == 1) {
          EXPECT_EQ(g.coneSize(pair[0]), ands.size());
          for (VarId v = 0; v < 11; ++v)
            EXPECT_EQ(g.dependsOn(pair[0], v), vars.count(v) == 1)
                << "round " << round << " var " << v;
        }
      }
    }
  }
  // The walks after round 4 crossed the wrap.
  EXPECT_LT(audit::Access::epoch(g), 0xffffffffu - 3);
  EXPECT_TRUE(audit::auditAig(g).ok()) << audit::auditAig(g).summary();
}

TEST(NodeMap, SetContainsClear) {
  aig::NodeMap m;
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.contains(12));
  m.set(12, Lit(3, true));
  m.set(2, Lit(1, false));
  m.set(12, Lit(4, false));  // overwrite does not double-count
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(12), Lit(4, false));
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.contains(12));
}

// ----- compose edge cases --------------------------------------------------

TEST(AigDense, ComposeEmptySpanIsIdentity) {
  Aig g;
  const Lit f = g.mkXor(g.pi(0), g.pi(1));
  const std::vector<aig::VarSub> empty;
  EXPECT_EQ(g.compose(f, empty), f);
  EXPECT_EQ(g.compose(f, {}), f);
}

TEST(AigDense, ComposeSwapsVariablesSimultaneously) {
  // {x := y, y := x} must swap, not chain through the first entry.
  Aig g;
  const Lit x = g.pi(0);
  const Lit y = g.pi(1);
  const Lit f = g.mkAnd(x, !y);
  const Lit swapped = g.compose(f, {{0, y}, {1, x}});
  const Lit expect = g.mkAnd(y, !x);
  EXPECT_TRUE(test::equivalentExhaustive(g, swapped, expect, 2));
}

TEST(AigDense, ComposeSelfSubstitutionIsIdentity) {
  Aig g;
  util::Random rng(5);
  const Lit f = test::randomFormula(g, rng, 4, 25);
  const Lit composed =
      g.compose(f, {{0, g.pi(0)}, {1, g.pi(1)}, {2, g.pi(2)}});
  EXPECT_TRUE(test::equivalentExhaustive(g, composed, f, 4));
}

TEST(AigDense, ComposeDuplicateEntryLastWins) {
  Aig g;
  const Lit f = g.pi(3);
  const Lit last = g.compose(f, {{3, aig::kFalse}, {3, aig::kTrue}});
  EXPECT_EQ(last, aig::kTrue);
}

TEST(AigDense, ComposeSubstitutionDependingOnOtherMappedVar) {
  // Substituted literals must be used as-is, never re-run through the
  // map: under {x := y, y := 0}, f = x becomes y, NOT 0 (which a
  // sequential/chaining implementation would produce).
  Aig g;
  const Lit y = g.pi(1);
  const Lit sub = g.compose(g.pi(0), {{0, y}, {1, aig::kFalse}});
  EXPECT_EQ(sub, y);
}

}  // namespace
}  // namespace cbq
