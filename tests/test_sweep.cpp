// Merge-phase (sweeping) tests: semantics preservation on random cones,
// detection of planted equivalences, the BDD and SAT layers individually,
// the signature arena's node-major resimulation agreeing bit for bit with
// its column-major referee, and its care-masked keys, equality and
// constant tests agreeing with a per-pattern referee.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "helpers.hpp"
#include "sweep/signatures.hpp"
#include "sweep/sweeper.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

using aig::Aig;
using aig::Lit;
using sweep::sweep;
using sweep::SweepContext;
using sweep::SweepOptions;

class SweepRandomized : public ::testing::TestWithParam<int> {};

TEST_P(SweepRandomized, PreservesSemantics) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 53 + 1);
  Aig g;
  const Lit a = test::randomFormula(g, rng, 5, 60);
  const Lit b = test::randomFormula(g, rng, 5, 60);
  const auto ttA = test::truthTable(g, a, 5);
  const auto ttB = test::truthTable(g, b, 5);

  const Lit roots[] = {a, b};
  SweepContext ctx;
  const auto result = sweep(g, roots, {}, ctx);
  EXPECT_EQ(test::truthTable(g, result.roots[0], 5), ttA);
  EXPECT_EQ(test::truthTable(g, result.roots[1], 5), ttB);
  EXPECT_LE(result.stats.nodesAfter, result.stats.nodesBefore);
}

TEST_P(SweepRandomized, SatOnlyAndBddOnlyLayersAreSound) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 61 + 3);
  Aig g;
  const Lit a = test::randomFormula(g, rng, 5, 50);
  const auto tt = test::truthTable(g, a, 5);
  {
    SweepOptions opts;
    opts.useBdd = false;
    const Lit roots[] = {a};
    SweepContext ctx;
    EXPECT_EQ(test::truthTable(g, sweep(g, roots, opts, ctx).roots[0], 5),
              tt);
  }
  {
    SweepOptions opts;
    opts.useSat = false;
    const Lit roots[] = {a};
    SweepContext ctx;
    EXPECT_EQ(test::truthTable(g, sweep(g, roots, opts, ctx).roots[0], 5),
              tt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepRandomized, ::testing::Range(0, 10));

/// Builds the same function twice with different structures so structural
/// hashing alone cannot merge them.
std::pair<Lit, Lit> plantEquivalentPair(Aig& g) {
  const Lit a = g.pi(0);
  const Lit b = g.pi(1);
  const Lit c = g.pi(2);
  // f1 = (a&b) | (a&c); f2 = a & (b|c) — same function, different shape.
  const Lit f1 = g.mkOr(g.mkAnd(a, b), g.mkAnd(a, c));
  const Lit f2 = g.mkAnd(a, g.mkOr(b, c));
  return {f1, f2};
}

TEST(Sweep, MergesPlantedEquivalence) {
  Aig g;
  auto [f1, f2] = plantEquivalentPair(g);
  // Wrap both in a common observer so the merged cone is measurable.
  const Lit roots[] = {f1, f2};
  SweepContext ctx;
  const auto result = sweep(g, roots, {}, ctx);
  EXPECT_EQ(result.roots[0], result.roots[1]);
  EXPECT_GT(result.stats.bddMerges + result.stats.satMerges, 0u);
}

TEST(Sweep, MergesComplementedEquivalence) {
  Aig g;
  const Lit a = g.pi(0);
  const Lit b = g.pi(1);
  // f1 = !(a&b), f2 = !a | !b — equal; also check f3 = a&b merges as the
  // complement of the same class.
  const Lit f1 = !g.mkAnd(a, b);
  const Lit f2 = g.mkOr(!a, !b);
  const Lit roots[] = {f1, f2};
  SweepContext ctx;
  const auto r = sweep(g, roots, {}, ctx);
  EXPECT_EQ(r.roots[0], r.roots[1]);
}

TEST(Sweep, DetectsConstantNodes) {
  Aig g;
  const Lit a = g.pi(0);
  const Lit b = g.pi(1);
  // (a|b) & (!a|b) & (a|!b) & (!a|!b) = 0, hidden behind enough structure
  // that two-level rules do not see it.
  const Lit f = g.mkAnd(g.mkAnd(g.mkOr(a, b), g.mkOr(!a, b)),
                        g.mkAnd(g.mkOr(a, !b), g.mkOr(!a, !b)));
  if (f.isConstant()) GTEST_SKIP() << "construction rules already folded it";
  const Lit roots[] = {f};
  SweepContext ctx;
  const auto r = sweep(g, roots, {}, ctx);
  EXPECT_TRUE(r.roots[0].isFalse());
  EXPECT_GT(r.stats.constMerges, 0u);
}

TEST(Sweep, SatOnlyFindsPlantedEquivalence) {
  Aig g;
  auto [f1, f2] = plantEquivalentPair(g);
  SweepOptions opts;
  opts.useBdd = false;
  const Lit roots[] = {f1, f2};
  SweepContext ctx;
  const auto r = sweep(g, roots, opts, ctx);
  EXPECT_EQ(r.roots[0], r.roots[1]);
  EXPECT_GT(r.stats.satMerges, 0u);
  EXPECT_GT(r.stats.satChecks, 0u);
}

TEST(Sweep, BddOnlyFindsPlantedEquivalence) {
  Aig g;
  auto [f1, f2] = plantEquivalentPair(g);
  SweepOptions opts;
  opts.useSat = false;
  const Lit roots[] = {f1, f2};
  SweepContext ctx;
  const auto r = sweep(g, roots, opts, ctx);
  EXPECT_EQ(r.roots[0], r.roots[1]);
  EXPECT_GT(r.stats.bddMerges, 0u);
}

TEST(Sweep, RefutationsRefineSignatures) {
  // An all-ones detector over 10 variables is false on all but one of
  // 1024 minterms: a single 64-bit random word almost surely simulates to
  // all-zero, so the sweeper proposes a constant merge, gets refuted by
  // SAT, and must keep the node. A few seeds guarantee at least one
  // false-candidate round deterministically.
  bool sawRefutation = false;
  for (std::uint64_t seed = 1; seed <= 8 && !sawRefutation; ++seed) {
    Aig g;
    std::vector<Lit> xs;
    for (aig::VarId v = 0; v < 10; ++v) xs.push_back(g.pi(v));
    const Lit allOnes = g.mkAndAll(xs);
    SweepOptions opts;
    opts.useBdd = false;
    opts.numWords = 1;
    opts.seed = seed;
    const Lit roots[] = {allOnes};
    SweepContext ctx;
    const auto r = sweep(g, roots, opts, ctx);
    EXPECT_FALSE(r.roots[0].isConstant());  // never merged wrongly
    sawRefutation = r.stats.satRefuted >= 1;
  }
  EXPECT_TRUE(sawRefutation);
}

TEST(Sweep, FullArenaRefusesAppendsButStaysSound) {
  // Same false-candidate setup as above, but the arena is capped at the
  // initial word so every refutation's counterexample append is refused:
  // the run must count arenaFull and still never merge wrongly.
  bool sawFullArena = false;
  for (std::uint64_t seed = 1; seed <= 8 && !sawFullArena; ++seed) {
    Aig g;
    std::vector<Lit> xs;
    for (aig::VarId v = 0; v < 10; ++v) xs.push_back(g.pi(v));
    const Lit allOnes = g.mkAndAll(xs);
    SweepOptions opts;
    opts.useBdd = false;
    opts.numWords = 1;
    opts.maxWords = 1;  // no room for counterexample columns
    opts.seed = seed;
    const Lit roots[] = {allOnes};
    SweepContext ctx;
    const auto r = sweep(g, roots, opts, ctx);
    EXPECT_FALSE(r.roots[0].isConstant());
    if (r.stats.satRefuted >= 1) {
      EXPECT_GE(r.stats.arenaFull, 1u);
      sawFullArena = r.stats.arenaFull >= 1;
    }
  }
  EXPECT_TRUE(sawFullArena);
}

TEST(Sweep, ConstantAndPiRootsSurvive) {
  Aig g;
  const Lit roots[] = {aig::kTrue, g.pi(3), aig::kFalse};
  SweepContext ctx;
  const auto r = sweep(g, roots, {}, ctx);
  EXPECT_EQ(r.roots[0], aig::kTrue);
  EXPECT_EQ(r.roots[1], g.pi(3));
  EXPECT_EQ(r.roots[2], aig::kFalse);
}

TEST(Sweep, CofactorPairScenarioSharesAggressively) {
  // The quantification workload: two cofactors of the same function are
  // usually near-identical; sweeping them must keep both functions.
  Aig g;
  util::Random rng(404);
  const Lit f = test::randomFormula(g, rng, 6, 80);
  // Pick a variable f barely depends on: cofactors w.r.t. it are similar.
  const Lit f0 = g.cofactor(f, 5, false);
  const Lit f1 = g.cofactor(f, 5, true);
  if (f0 == f1) GTEST_SKIP() << "strash already merged the cofactors";
  SweepOptions opts;
  const Lit roots[] = {f0, f1};
  SweepContext ctx;
  const auto r = sweep(g, roots, opts, ctx);
  const auto t0 = test::truthTable(g, r.roots[0], 6);
  const auto t1 = test::truthTable(g, r.roots[1], 6);
  EXPECT_EQ(t0, test::truthTable(g, f0, 6));
  EXPECT_EQ(t1, test::truthTable(g, f1, 6));
}

TEST(Sweep, StatsAreConsistent) {
  Aig g;
  util::Random rng(7);
  const Lit f = test::randomFormula(g, rng, 5, 60);
  const Lit roots[] = {f};
  SweepContext ctx;
  const auto r = sweep(g, roots, {}, ctx);
  EXPECT_GE(r.stats.satChecks, r.stats.satMerges + r.stats.satRefuted);
  EXPECT_GE(r.stats.rounds, 1u);
}

/// Incrementally appended words, resimulateAll() and the column-major
/// resimulateAllReference() must agree bit for bit.
TEST(Signatures, ResimulationMatchesIncrementalAndReference) {
  util::Random build(42);
  Aig g;
  const Lit root = test::randomFormula(g, build, 8, 400);
  const Lit roots[] = {root};
  const auto order = g.coneAnds(roots);
  const auto support = g.supportVars(roots);

  util::Random rng(7);
  sweep::Signatures sigs(g, order, support, rng, 4, 8);
  const std::vector<std::uint64_t> cex(support.size(), 0xf0f0f0f0ull);
  EXPECT_TRUE(sigs.appendWord(cex, static_cast<int>(support.size()), rng));
  auto collect = [&] {
    std::vector<std::uint64_t> words;
    for (const auto n : order)
      for (const auto w : sigs.of(n)) words.push_back(w);
    return words;
  };
  const auto incremental = collect();
  sigs.resimulateAll();
  EXPECT_EQ(collect(), incremental);
  sigs.resimulateAllReference();
  EXPECT_EQ(collect(), incremental);
}

/// Per-pattern referee for the care-masked comparisons: every stored
/// pattern is evaluated on the manager, and the masked key, equality and
/// constant tests must agree with the patterns where `care` is 1.
TEST(Signatures, CareMaskedTestsAgreeWithPatternReferee) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Random rng(seed * 43 + 11);
    Aig g;
    const Lit f = test::randomFormula(g, rng, 5, 40);
    const Lit h = test::randomFormula(g, rng, 5, 40);
    const Lit c = test::randomFormula(g, rng, 5, 15);
    const Lit roots[] = {f, h, c};
    const auto order = g.coneAnds(roots);
    const auto support = g.supportVars(roots);
    if (order.empty()) continue;
    sweep::Signatures sigs(g, order, support, rng, 2, 3);
    // A column of 64 copies of one input pattern: one phase of `c` has
    // an empty care set on that word.
    std::vector<std::uint64_t> same(support.size());
    for (auto& w : same) w = (rng.next64() & 1) != 0 ? ~std::uint64_t{0} : 0;
    ASSERT_TRUE(sigs.appendWord(same, 64, rng));

    // value[k][p]: node order[k] on pattern p; carePat[p]: care on p.
    const std::size_t patterns = sigs.words() * 64;
    std::vector<std::unordered_map<aig::VarId, bool>> assignment(patterns);
    for (std::size_t p = 0; p < patterns; ++p)
      for (const aig::VarId v : support)
        assignment[p].emplace(
            v, ((sigs.of(g.piNodeOf(v))[p / 64] >> (p % 64)) & 1) != 0);
    std::vector<std::vector<bool>> value(order.size());
    for (std::size_t k = 0; k < order.size(); ++k)
      for (std::size_t p = 0; p < patterns; ++p)
        value[k].push_back(g.evaluate(Lit(order[k], false), assignment[p]));

    bool sawEmptyWord = false;
    for (const Lit care : {aig::kTrue, c, !c}) {
      std::vector<std::size_t> carePats;
      for (std::size_t p = 0; p < patterns; ++p)
        if (g.evaluate(care, assignment[p])) carePats.push_back(p);
      if (care == aig::kTrue) {
        ASSERT_EQ(carePats.size(), patterns);
      }
      sawEmptyWord = sawEmptyWord ||
                     carePats.empty() || carePats.back() < patterns - 64;

      std::vector<sweep::Signatures::Key> keys;
      for (std::size_t k = 0; k < order.size(); ++k) {
        const aig::NodeId n = order[k];
        for (const bool v : {false, true}) {
          bool constant = true;
          for (const std::size_t p : carePats)
            constant = constant && value[k][p] == v;
          EXPECT_EQ(sigs.constantUnder(n, v, care), constant)
              << "seed " << seed << " node " << n << " value " << v;
        }
        // The phase is the value on the first care pattern — bit 0 of
        // word 0 when care is everywhere.
        keys.push_back(sigs.normalizedKey(n, care));
        const bool phase = !carePats.empty() && value[k][carePats.front()];
        EXPECT_EQ(keys[k].phase, phase) << "seed " << seed << " node " << n;
      }
      for (std::size_t a = 0; a < order.size(); ++a) {
        for (std::size_t b = 0; b < order.size(); ++b) {
          bool equal = true;
          for (const std::size_t p : carePats)
            equal = equal && (value[a][p] != keys[a].phase) ==
                                 (value[b][p] != keys[b].phase);
          EXPECT_EQ(sigs.equalNormalized(order[a], keys[a].phase, order[b],
                                         keys[b].phase, care),
                    equal)
              << "seed " << seed << " nodes " << order[a] << ", "
              << order[b];
          if (equal) {
            EXPECT_EQ(keys[a].hash, keys[b].hash);
          }
        }
      }
    }
    EXPECT_TRUE(sawEmptyWord) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cbq
