// Merge-phase (sweeping) tests: semantics preservation on random cones,
// detection of planted equivalences, the BDD and SAT layers individually,
// the exhaustive-simulation proofs of small-support cones against truth
// tables on both sides of the arena's bounds, the signature arena's
// node-major resimulation agreeing bit for bit with its column-major
// referee, and its care-masked keys, equality and constant tests agreeing
// with a per-pattern referee. Tests of the SAT path sweep cones whose
// support exceeds Signatures::kExhaustiveMaxInputs (test::wideXor); the
// randomized soundness tests run every seed on both sides of the bound.

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
using sweep::Signatures;
using sweep::sweep;
using sweep::SweepContext;
using sweep::SweepOptions;

/// Inputs of a support just past the exhaustive bound.
constexpr int kWide = static_cast<int>(Signatures::kExhaustiveMaxInputs) + 1;

class SweepRandomized : public ::testing::TestWithParam<int> {};

/// Adds to `roots` the XOR of inputs 0..kWide-1 built in two orders: the
/// support is then past the exhaustive bound whatever the random formulas
/// use, so the sweep takes the SAT path, and the two XORs give it at
/// least one compare point.
void widen(Aig& g, std::vector<Lit>& roots) {
  roots.push_back(test::wideXor(g, 0, kWide));
  roots.push_back(test::wideXorReversed(g, 0, kWide));
}

TEST_P(SweepRandomized, PreservesSemantics) {
  for (const bool wide : {false, true}) {
    util::Random rng(static_cast<std::uint64_t>(GetParam()) * 53 + 1);
    Aig g;
    const int vars = wide ? kWide : 5;
    std::vector<Lit> roots = {test::randomFormula(g, rng, vars, 60),
                              test::randomFormula(g, rng, vars, 60)};
    if (wide) widen(g, roots);
    SweepContext ctx;
    const auto result = sweep(g, roots, {}, ctx);
    for (std::size_t i = 0; i < roots.size(); ++i)
      EXPECT_EQ(test::truthTable(g, result.roots[i], vars),
                test::truthTable(g, roots[i], vars))
          << "root " << i << " wide " << wide;
    EXPECT_LE(result.stats.nodesAfter, result.stats.nodesBefore);
    // The narrow cone is proven by simulation, the wide one by SAT.
    EXPECT_EQ(wide ? result.stats.simProofs : result.stats.satChecks, 0u);
    if (wide) {
      EXPECT_GT(result.stats.satChecks, 0u);
    }
  }
}

TEST_P(SweepRandomized, SatOnlyAndBddOnlyLayersAreSound) {
  for (const bool wide : {false, true}) {
    util::Random rng(static_cast<std::uint64_t>(GetParam()) * 61 + 3);
    Aig g;
    const int vars = wide ? kWide : 5;
    std::vector<Lit> roots = {test::randomFormula(g, rng, vars, 50)};
    if (wide) widen(g, roots);
    std::vector<std::vector<bool>> tts;
    for (const Lit root : roots) tts.push_back(test::truthTable(g, root, vars));
    auto truthTables = [&](const std::vector<Lit>& rebuilt) {
      std::vector<std::vector<bool>> out;
      for (const Lit root : rebuilt)
        out.push_back(test::truthTable(g, root, vars));
      return out;
    };
    {
      SweepContext ctx;
      const auto r = sweep(g, roots, {}, ctx);
      EXPECT_EQ(truthTables(r.roots), tts) << wide;
      EXPECT_EQ(wide ? r.stats.simProofs : r.stats.satChecks, 0u);
      if (wide) {
        EXPECT_GT(r.stats.satChecks, 0u);
      }
    }
    {
      SweepOptions opts;
      opts.useSat = false;
      SweepContext ctx;
      const auto r = sweep(g, roots, opts, ctx);
      EXPECT_EQ(truthTables(r.roots), tts) << wide;
      EXPECT_EQ(r.stats.satChecks + r.stats.simProofs, 0u) << wide;
    }
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
  // A third root widens the support past the exhaustive bound.
  const Lit roots[] = {f1, f2, test::wideXor(g, 3, kWide)};
  SweepContext ctx;
  const auto r = sweep(g, roots, {}, ctx);
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
  // An all-ones detector over 16 variables (past the exhaustive bound) is
  // false on all but one of 65536 minterms: a single 64-bit random word
  // almost surely simulates to all-zero, so the sweeper proposes a
  // constant merge, gets refuted by SAT, and must keep the node. A few
  // seeds guarantee at least one false-candidate round deterministically.
  bool sawRefutation = false;
  for (std::uint64_t seed = 1; seed <= 8 && !sawRefutation; ++seed) {
    Aig g;
    std::vector<Lit> xs;
    for (aig::VarId v = 0; v < 16; ++v) xs.push_back(g.pi(v));
    const Lit allOnes = g.mkAndAll(xs);
    SweepOptions opts;
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
    for (aig::VarId v = 0; v < 16; ++v) xs.push_back(g.pi(v));
    const Lit allOnes = g.mkAndAll(xs);
    SweepOptions opts;
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
  // Seed 431 gives a 46-AND formula whose cofactors w.r.t. variable 5
  // are distinct 61-AND cones sharing most of their structure.
  Aig g;
  util::Random rng(431);
  const Lit f = test::randomFormula(g, rng, 6, 80);
  const Lit f0 = g.cofactor(f, 5, false);
  const Lit f1 = g.cofactor(f, 5, true);
  ASSERT_NE(f0, f1);
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
  const Lit roots[] = {f, test::wideXor(g, 5, kWide)};
  SweepContext ctx;
  const auto r = sweep(g, roots, {}, ctx);
  EXPECT_GE(r.stats.satChecks, r.stats.satMerges + r.stats.satRefuted);
  EXPECT_GE(r.stats.rounds, 1u);
}

TEST(Sweep, ExhaustiveConesAreProvenWithoutSat) {
  // Small supports: every merge is a simulation proof, no BDD is built,
  // and the rebuilt cones keep their truth tables.
  std::size_t proofs = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Random rng(seed * 59 + 13);
    Aig g;
    const int vars = 4 + static_cast<int>(seed % 8);
    const Lit f = test::randomFormula(g, rng, vars, 60);
    const Lit h = test::randomFormula(g, rng, vars, 60);
    const Lit roots[] = {f, h};
    SweepContext ctx;
    const auto r = sweep(g, roots, {}, ctx);
    EXPECT_EQ(test::truthTable(g, r.roots[0], vars),
              test::truthTable(g, f, vars));
    EXPECT_EQ(test::truthTable(g, r.roots[1], vars),
              test::truthTable(g, h, vars));
    EXPECT_EQ(r.stats.satChecks, 0u) << seed;
    EXPECT_EQ(r.stats.bddMerges, 0u) << seed;
    EXPECT_EQ(r.stats.simProofs, r.stats.satMerges + r.stats.constMerges)
        << seed;
    proofs += r.stats.simProofs;
  }
  EXPECT_GT(proofs, 0u);
}

/// Bit `p` of node `n`'s signature: its value on pattern p.
bool sigBit(const Signatures& sigs, aig::NodeId n, std::size_t p) {
  return ((sigs.of(n)[p / 64] >> (p % 64)) & 1) != 0;
}

TEST(Signatures, ExhaustiveExactlyUpToTheInputBound) {
  // At the bound the PI rows enumerate every pattern (pattern p sets
  // support entry i to bit i of p), every node's row is its truth table
  // and appends are refused; one input more and the rows are random.
  for (const int n : {kWide - 1, kWide}) {
    util::Random rng(17);
    Aig g;
    const Lit f = test::randomFormula(g, rng, n, 60);
    const Lit roots[] = {f, test::wideXor(g, 0, n)};
    const auto order = g.coneAnds(roots);
    const auto support = g.supportVars(roots);
    ASSERT_EQ(support.size(), static_cast<std::size_t>(n));
    Signatures sigs(g, order, support, rng, 2, 4);
    if (n == kWide) {
      EXPECT_FALSE(sigs.exhaustive());
      EXPECT_EQ(sigs.words(), 2u);
      continue;
    }
    ASSERT_TRUE(sigs.exhaustive());
    const std::size_t patterns = std::size_t{1} << n;
    ASSERT_EQ(sigs.words() * 64, patterns);
    for (std::size_t i = 0; i < support.size(); ++i)
      for (std::size_t p = 0; p < patterns; ++p)
        ASSERT_EQ(sigBit(sigs, g.piNodeOf(support[i]), p), ((p >> i) & 1) != 0)
            << "support entry " << i << " pattern " << p;
    const auto tt = test::truthTable(g, f, n);
    for (std::size_t p = 0; p < patterns; ++p)
      ASSERT_EQ(sigBit(sigs, f.node(), p) != f.negated(), tt[p]) << p;
    const std::vector<std::uint64_t> cex(support.size(), 0);
    EXPECT_FALSE(sigs.appendWord(cex, 1, rng));
    EXPECT_EQ(sigs.words() * 64, patterns);
  }
}

TEST(Signatures, LargeConeOnSmallSupportFallsBackToRandomWords) {
  // 14 inputs need 256 words per slot: a cone of more than a thousand
  // ANDs exceeds the arena cap, so its words are random and the sweeper
  // takes the SAT path — and stays sound.
  util::Random rng(23);
  Aig g;
  const int n = kWide - 1;
  std::vector<Lit> roots = {test::wideXor(g, 0, n)};
  while (g.coneAnds(roots).size() < 1100)
    roots.push_back(test::randomFormula(g, rng, n, 200));
  const auto order = g.coneAnds(roots);
  const auto support = g.supportVars(roots);
  ASSERT_EQ(support.size(), static_cast<std::size_t>(n));
  const std::size_t words = std::size_t{1} << (n - 6);
  ASSERT_GT(words * (1 + support.size() + order.size()),
            Signatures::kExhaustiveMaxArenaWords);
  {
    util::Random sim(3);
    const Signatures sigs(g, order, support, sim, 2, 4);
    EXPECT_FALSE(sigs.exhaustive());
    EXPECT_EQ(sigs.words(), 2u);
  }
  SweepContext ctx;
  const auto r = sweep(g, roots, {}, ctx);
  for (std::size_t i = 0; i < roots.size(); ++i)
    EXPECT_EQ(test::truthTable(g, r.roots[i], n),
              test::truthTable(g, roots[i], n))
        << "root " << i;
  EXPECT_GT(r.stats.satChecks, 0u);
  EXPECT_EQ(r.stats.simProofs, 0u);
}

TEST(Refine, ExhaustiveMergesMatchTruthTablesUnderCare) {
  // The shared loop on an exhaustive arena, with care kTrue and ¬fRef:
  // every merge holds on every care minterm (truth-table referee), no SAT
  // query is made, and the pass is complete — no unmerged AND is equal
  // under care to a constant or to an earlier candidate.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Random rng(seed * 71 + 5);
    Aig g;
    const int vars = 8;
    const Lit fRef = test::randomFormula(g, rng, vars, 30);
    const Lit fTgt = test::randomFormula(g, rng, vars, 60);
    const Lit both[] = {fRef, fTgt};
    const Lit tgt[] = {fTgt};
    const auto support = g.supportVars(both);
    const auto order = g.coneAnds(tgt);
    for (const Lit care : {aig::kTrue, !fRef}) {
      Signatures sigs(g, g.coneAnds(both), support, rng, 2, 4);
      ASSERT_TRUE(sigs.exhaustive());
      SweepContext ctx;
      ctx.bind(g);
      sweep::SweepStats stats;
      aig::NodeMap merges;
      EXPECT_TRUE(sweep::refine(g, order, support, sigs, care, ctx, 8, 2000,
                                rng, stats, merges));
      EXPECT_EQ(stats.satChecks, 0u);

      const auto careTt = test::truthTable(g, care, vars);
      auto equalUnderCare = [&](Lit a, Lit b) {
        const auto ta = test::truthTable(g, a, vars);
        const auto tb = test::truthTable(g, b, vars);
        for (std::size_t m = 0; m < ta.size(); ++m)
          if (careTt[m] && ta[m] != tb[m]) return false;
        return true;
      };
      std::vector<Lit> earlier;  // PIs, then the candidates before n
      for (const aig::VarId v : support) earlier.push_back(g.pi(v));
      std::size_t merged = 0;
      for (const aig::NodeId n : order) {
        const Lit ln(n, false);
        if (merges.contains(n)) {
          ++merged;
          EXPECT_TRUE(equalUnderCare(ln, merges.at(n)))
              << "seed " << seed << " node " << n;
        } else {
          EXPECT_FALSE(equalUnderCare(ln, aig::kFalse) ||
                       equalUnderCare(ln, aig::kTrue))
              << "seed " << seed << " node " << n;
          for (const Lit e : earlier)
            EXPECT_FALSE(equalUnderCare(ln, e) || equalUnderCare(ln, !e))
                << "seed " << seed << " node " << n << " vs " << e.node();
        }
        earlier.push_back(ln);
      }
      EXPECT_EQ(stats.simProofs, merged);
      EXPECT_EQ(stats.satMerges + stats.constMerges, merged);
      EXPECT_EQ(ctx.cacheSize(), 0u);  // simulation proofs are not cached
    }
  }
}

/// Incrementally appended words, resimulateAll() and the column-major
/// resimulateAllReference() must agree bit for bit.
TEST(Signatures, ResimulationMatchesIncrementalAndReference) {
  util::Random build(42);
  Aig g;
  const Lit root = test::randomFormula(g, build, 8, 400);
  const Lit roots[] = {root, test::wideXor(g, 8, kWide)};
  const auto order = g.coneAnds(roots);
  const auto support = g.supportVars(roots);
  ASSERT_GT(support.size(), Signatures::kExhaustiveMaxInputs);

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
    const Lit roots[] = {f, h, c, test::wideXor(g, 5, kWide)};
    const auto order = g.coneAnds(roots);
    const auto support = g.supportVars(roots);
    ASSERT_GT(support.size(), Signatures::kExhaustiveMaxInputs) << seed;
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
