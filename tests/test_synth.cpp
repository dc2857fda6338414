// Optimization-phase tests: the don't-care simplifier must preserve the
// disjunction fRef ∨ fTgt exactly (checked against truth tables), shrink
// constructed examples, honour the ODC escape hatch, and refute ODC
// attempts on its pattern bank without changing what gets committed.
// Small supports take the exhaustive-simulation path (no SAT call); the
// tests of the SAT path and its bank use supports past
// Signatures::kExhaustiveMaxInputs, and the randomized truth-table tests
// run every seed on both sides of the bound.

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "sweep/signatures.hpp"
#include "synth/dc_simplify.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

using aig::Aig;
using aig::Lit;
using synth::dcSimplify;
using synth::DcOptions;

/// Inputs of a support just past the exhaustive bound.
constexpr int kWide =
    static_cast<int>(sweep::Signatures::kExhaustiveMaxInputs) + 1;

std::vector<bool> orTable(const Aig& g, Lit a, Lit b, int n) {
  auto ta = test::truthTable(g, a, n);
  const auto tb = test::truthTable(g, b, n);
  for (std::size_t i = 0; i < ta.size(); ++i)
    ta[i] = ta[i] || tb[i];
  return ta;
}

class DcRandomized : public ::testing::TestWithParam<int> {};

/// ORs into the target the XOR of inputs 0..kWide-1 built in two orders:
/// the joint support is then past the exhaustive bound whatever the random
/// formulas use, so both phases take the SAT path, and the two XORs give
/// the input-DC phase at least one compare point.
void widen(Aig& g, Lit& fTgt) {
  fTgt = g.mkOr(fTgt, g.mkAnd(test::wideXor(g, 0, kWide),
                              test::wideXorReversed(g, 0, kWide)));
}

TEST_P(DcRandomized, DisjunctionIsPreserved) {
  for (const bool wide : {false, true}) {
    util::Random rng(static_cast<std::uint64_t>(GetParam()) * 97 + 1);
    Aig g;
    const int vars = wide ? kWide : 5;
    const Lit fRef = test::randomFormula(g, rng, vars, 40);
    Lit fTgt = test::randomFormula(g, rng, vars, 40);
    if (wide) widen(g, fTgt);
    const auto before = orTable(g, fRef, fTgt, vars);

    sweep::SweepContext ctx;
    const auto r = dcSimplify(g, fRef, fTgt, {}, ctx);
    EXPECT_EQ(orTable(g, fRef, r.target, vars), before) << wide;
    EXPECT_EQ(wide ? r.stats.simProofs : r.stats.satChecks, 0u) << wide;
    // A constant target or fRef = 1 is settled before any check.
    if (wide && !fTgt.isConstant() && !fRef.isTrue()) {
      EXPECT_GT(r.stats.satChecks, 0u);
    }
  }
}

TEST_P(DcRandomized, OdcDisabledStillPreserves) {
  for (const bool wide : {false, true}) {
    util::Random rng(static_cast<std::uint64_t>(GetParam()) * 101 + 2);
    Aig g;
    const int vars = wide ? kWide : 5;
    const Lit fRef = test::randomFormula(g, rng, vars, 40);
    Lit fTgt = test::randomFormula(g, rng, vars, 40);
    if (wide) widen(g, fTgt);
    const auto before = orTable(g, fRef, fTgt, vars);
    DcOptions opts;
    opts.useOdc = false;
    sweep::SweepContext ctx;
    const auto r = dcSimplify(g, fRef, fTgt, opts, ctx);
    EXPECT_EQ(orTable(g, fRef, r.target, vars), before) << wide;
    EXPECT_EQ(wide ? r.stats.simProofs : r.stats.satChecks, 0u) << wide;
    if (wide) {
      EXPECT_GT(r.stats.satChecks, 0u);
    }
  }
}

TEST_P(DcRandomized, InputDcReplacementsMatchOutsideDcSet) {
  // Stronger than the disjunction property: wherever fRef = 0 the
  // simplified target must equal the original pointwise.
  for (const bool wide : {false, true}) {
    util::Random rng(static_cast<std::uint64_t>(GetParam()) * 103 + 3);
    Aig g;
    const int vars = wide ? kWide : 5;
    const Lit fRef = test::randomFormula(g, rng, vars, 30);
    Lit fTgt = test::randomFormula(g, rng, vars, 30);
    if (wide) widen(g, fTgt);
    DcOptions opts;
    opts.useOdc = false;  // ODC replacements are allowed to differ pointwise
    sweep::SweepContext ctx;
    const auto r = dcSimplify(g, fRef, fTgt, opts, ctx);
    EXPECT_EQ(r.stats.odcReplacements, 0u);
    EXPECT_EQ(r.stats.odcSimRefuted, 0u);
    EXPECT_EQ(wide ? r.stats.simProofs : r.stats.satChecks, 0u) << wide;
    if (wide) {
      EXPECT_GT(r.stats.satChecks, 0u);
    }
    const auto tRef = test::truthTable(g, fRef, vars);
    const auto tOld = test::truthTable(g, fTgt, vars);
    const auto tNew = test::truthTable(g, r.target, vars);
    for (std::size_t i = 0; i < tRef.size(); ++i) {
      if (!tRef[i]) {
        EXPECT_EQ(tNew[i], tOld[i]) << "care minterm " << i << " wide " << wide;
      }
    }
  }
}

/// Cofactor pair over `baseVars` or `baseVars` + 1 variables: muxes of
/// random formulas, the reference one an AND of two so its onset (the
/// don't-care set) stays small. 7-8 variables give exhaustive signatures;
/// kWide-kWide+1 random ones, so phase A and phase B issue SAT queries.
/// Pairs are redrawn until their joint support has every variable.
struct LargePair {
  int vars;
  Lit fRef, fTgt;
};
LargePair largePair(Aig& g, int seed, int baseVars = kWide) {
  const int vars = baseVars + seed % 2;
  util::Random rng(static_cast<std::uint64_t>(seed) * 107 + 4);
  auto mux = [&] {
    const Lit a = test::randomFormula(g, rng, vars, 40);
    const Lit b = test::randomFormula(g, rng, vars, 40);
    const Lit c = test::randomFormula(g, rng, vars, 40);
    return g.mkMux(a, b, c);
  };
  for (;;) {
    const Lit fRef = g.mkAnd(mux(), mux());
    const LargePair p{vars, fRef, mux()};
    const Lit both[] = {p.fRef, p.fTgt};
    if (g.supportVars(both).size() == static_cast<std::size_t>(vars))
      return p;
  }
}

bool statsAddUp(const synth::DcStats& s) {
  return s.satChecks + s.simProofs == s.constReplacements +
                                          s.mergeReplacements +
                                          s.odcReplacements + s.satRefuted +
                                          s.satUnknown;
}

TEST_P(DcRandomized, OdcOnLargerConesPreservesDisjunction) {
  // One seed word and a generous attempt cap, with and without input-DC
  // rounds: without them every SAT refutation comes from phase B, so the
  // filter runs on a bank grown past its seed words.
  for (const int rounds : {8, 0}) {
    Aig g;
    const auto p = largePair(g, GetParam());
    const auto before = orTable(g, p.fRef, p.fTgt, p.vars);
    DcOptions opts;
    opts.numWords = 1;
    opts.maxRounds = rounds;
    opts.odcAttempts = 400;
    sweep::SweepContext ctx;
    const auto r = dcSimplify(g, p.fRef, p.fTgt, opts, ctx);
    EXPECT_EQ(orTable(g, p.fRef, r.target, p.vars), before) << rounds;
    EXPECT_TRUE(statsAddUp(r.stats)) << rounds;
    EXPECT_EQ(r.stats.simProofs, 0u) << rounds;
  }
}

TEST_P(DcRandomized, ExhaustiveOdcCommitsPreserveTheDisjunction) {
  // The same pair shape on 7-8 variables: both phases prove by
  // simulation alone, and every commit keeps fRef ∨ fTgt (truth-table
  // referee).
  for (const int rounds : {8, 0}) {
    Aig g;
    const auto p = largePair(g, GetParam(), 7);
    const auto before = orTable(g, p.fRef, p.fTgt, p.vars);
    DcOptions opts;
    opts.numWords = 1;
    opts.maxRounds = rounds;
    opts.odcAttempts = 400;
    sweep::SweepContext ctx;
    const auto r = dcSimplify(g, p.fRef, p.fTgt, opts, ctx);
    EXPECT_EQ(orTable(g, p.fRef, r.target, p.vars), before) << rounds;
    EXPECT_TRUE(statsAddUp(r.stats)) << rounds;
    EXPECT_EQ(r.stats.satChecks, 0u) << rounds;
    EXPECT_EQ(r.stats.satRefuted + r.stats.satUnknown, 0u) << rounds;
  }
}

TEST(DcSimplify, ExhaustiveOdcCommitsAndRefutesBySimulation) {
  // Across the seeds above, simulation proofs commit ODC rewrites and
  // refute others, and the committed targets shrink.
  std::size_t odc = 0;
  std::size_t simRefuted = 0;
  for (int seed = 0; seed < 12; ++seed) {
    Aig g;
    const auto p = largePair(g, seed, 7);
    DcOptions opts;
    opts.odcAttempts = 400;
    sweep::SweepContext ctx;
    const auto r = dcSimplify(g, p.fRef, p.fTgt, opts, ctx);
    EXPECT_LE(r.stats.nodesAfter, r.stats.nodesBefore) << seed;
    odc += r.stats.odcReplacements;
    simRefuted += r.stats.odcSimRefuted;
  }
  EXPECT_GT(odc, 0u);
  EXPECT_GT(simRefuted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DcRandomized, ::testing::Range(0, 12));

TEST(DcSimplify, EmptyReferenceAllowsOnlyUnconditionalReplacements) {
  // fRef = 0 puts every input in the care set: phase A runs the shared
  // loop with care kTrue, so each replacement it makes must hold
  // everywhere and the target keeps its exact function.
  std::size_t replacements = 0;
  for (int seed = 0; seed < 10; ++seed) {
    util::Random rng(static_cast<std::uint64_t>(seed) * 109 + 5);
    Aig g;
    const Lit fTgt = test::randomFormula(g, rng, 5, 60);
    DcOptions opts;
    opts.useOdc = false;
    sweep::SweepContext ctx;
    const auto r = dcSimplify(g, aig::kFalse, fTgt, opts, ctx);
    EXPECT_EQ(test::truthTable(g, r.target, 5), test::truthTable(g, fTgt, 5))
        << "seed " << seed;
    replacements += r.stats.constReplacements + r.stats.mergeReplacements;
  }
  EXPECT_GT(replacements, 0u);
}

TEST(DcSimplify, TautologicalReferenceCollapsesTarget) {
  Aig g;
  const Lit fTgt = g.mkAnd(g.pi(0), g.pi(1));
  sweep::SweepContext ctx;
  const auto r = dcSimplify(g, aig::kTrue, fTgt, {}, ctx);
  EXPECT_TRUE(r.target.isFalse());
}

TEST(DcSimplify, ConstantTargetIsFixpoint) {
  Aig g;
  const Lit fRef = g.pi(0);
  sweep::SweepContext ctx;
  const auto r = dcSimplify(g, fRef, aig::kFalse, {}, ctx);
  EXPECT_TRUE(r.target.isFalse());
}

TEST(DcSimplify, SubsumedTargetShrinksToConstant) {
  // fTgt implies fRef, so inside the care set (¬fRef) the target is
  // identically 0: the simplifier should find the constant replacement.
  Aig g;
  const Lit a = g.pi(0);
  const Lit b = g.pi(1);
  const Lit fRef = g.mkOr(a, b);
  const Lit fTgt = g.mkAnd(a, b);
  sweep::SweepContext ctx;
  const auto r = dcSimplify(g, fRef, fTgt, {}, ctx);
  EXPECT_TRUE(r.target.isFalse());
  EXPECT_GT(r.stats.constReplacements + r.stats.odcReplacements, 0u);
}

TEST(DcSimplify, MergeCandidateWithinCareSet) {
  // Inside the care set !a (i.e. a = 0): a^b == b, so the XOR structure
  // of the target can collapse onto the plain variable.
  Aig g;
  const Lit a = g.pi(0);
  const Lit b = g.pi(1);
  const Lit c = g.pi(2);
  const Lit fRef = a;
  const Lit fTgt = g.mkAnd(g.mkXor(a, b), c);
  const auto before = orTable(g, fRef, fTgt, 3);
  sweep::SweepContext ctx;
  const auto r = dcSimplify(g, fRef, fTgt, {}, ctx);
  EXPECT_EQ(orTable(g, fRef, r.target, 3), before);
  EXPECT_LE(g.coneSize(r.target), g.coneSize(fTgt));
}

TEST(DcSimplify, OdcBankGrowsOnTheRandomizedPairs) {
  // The parameterized test above is only meaningful if phase B both
  // refutes by simulation and banks SAT counterexamples on these pairs.
  std::size_t simRefuted = 0;
  std::size_t banked = 0;
  for (int seed = 0; seed < 12; ++seed) {
    Aig g;
    const auto p = largePair(g, seed);
    DcOptions opts;
    opts.numWords = 1;
    opts.maxRounds = 0;  // every SAT refutation is a phase-B bank pattern
    opts.odcAttempts = 400;
    sweep::SweepContext ctx;
    const auto r = dcSimplify(g, p.fRef, p.fTgt, opts, ctx);
    simRefuted += r.stats.odcSimRefuted;
    banked += r.stats.satRefuted;
  }
  EXPECT_GT(simRefuted, 0u);
  EXPECT_GT(banked, 0u);
}

/// Equality of the bit vector `x` (LSB first) with the constant `k`.
Lit equalsConst(Aig& g, const std::vector<Lit>& x, unsigned k) {
  Lit eq = aig::kTrue;
  for (std::size_t i = 0; i < x.size(); ++i)
    eq = g.mkAnd(eq, ((k >> i) & 1) != 0 ? x[i] : !x[i]);
  return eq;
}

TEST(DcSimplify, OdcBankRollsIntoFreshColumns) {
  // A disjunction of 80 15-bit minterms (past the exhaustive bound):
  // forcing a term's node is visible only on that term's own minterm,
  // which random words almost never hit, so nearly every surviving
  // attempt is a SAT refutation — more than one 64-pattern column's
  // worth. The terms the reference already covers are redundant, so ODC
  // still commits.
  constexpr int kBits = kWide;
  Aig g;
  std::vector<Lit> x;
  for (int i = 0; i < kBits; ++i)
    x.push_back(g.pi(static_cast<aig::VarId>(i)));
  util::Random rng(77);
  std::vector<Lit> terms;
  for (int t = 0; t < 80; ++t)
    terms.push_back(
        equalsConst(g, x, static_cast<unsigned>(rng.below(1u << kBits))));
  const Lit fRef = g.mkOr(terms[0], terms[1]);
  const Lit fTgt = g.mkOrAll(terms);
  const auto before = orTable(g, fRef, fTgt, kBits);
  DcOptions opts;
  opts.maxRounds = 0;  // every SAT refutation is a phase-B bank pattern
  opts.odcAttempts = 4000;
  sweep::SweepContext ctx;
  const auto r = dcSimplify(g, fRef, fTgt, opts, ctx);
  EXPECT_EQ(orTable(g, fRef, r.target, kBits), before);
  EXPECT_TRUE(statsAddUp(r.stats));
  EXPECT_GT(r.stats.satRefuted, 64u);
  EXPECT_GT(r.stats.odcSimRefuted, 0u);
  EXPECT_GT(r.stats.odcReplacements, 0u);
}

TEST(DcSimplify, StatsAccounting) {
  // Every SAT query answers exactly once: Holds commits a replacement,
  // Fails is a refutation, Unknown an abandoned query. Simulation
  // refutations issue no query.
  Aig g;
  util::Random rng(21);
  const Lit fRef = test::randomFormula(g, rng, 4, 20);
  const Lit fTgt = test::randomFormula(g, rng, 4, 20);
  sweep::SweepContext ctx;
  const auto r = dcSimplify(g, fRef, fTgt, {}, ctx);
  EXPECT_TRUE(statsAddUp(r.stats));
  EXPECT_EQ(r.stats.nodesBefore, g.coneSize(fTgt));
}

TEST(DcSimplify, CounterCofactorsUseTheBankAndStillCommitOdc) {
  // The cofactor pair of a counter's pre-image step: with enable = 0 the
  // state must already be K, with enable = 1 the incremented state must
  // be K. The increment's carry chain is mostly invisible once s = K is
  // a don't-care, so ODC commits rewrites; most other attempts are
  // observable on some stored pattern.
  constexpr int kBits = 6;
  constexpr unsigned kTarget = 0x2b;
  Aig g;
  std::vector<Lit> s;
  for (int i = 0; i < kBits; ++i)
    s.push_back(g.pi(static_cast<aig::VarId>(i)));
  std::vector<Lit> next;
  Lit carry = aig::kTrue;
  for (const Lit b : s) {
    next.push_back(g.mkXor(b, carry));
    carry = g.mkAnd(b, carry);
  }
  const Lit fRef = equalsConst(g, s, kTarget);
  const Lit fTgt = equalsConst(g, next, kTarget);
  const auto before = orTable(g, fRef, fTgt, kBits);
  sweep::SweepContext ctx;
  const auto r = dcSimplify(g, fRef, fTgt, {}, ctx);
  EXPECT_EQ(orTable(g, fRef, r.target, kBits), before);
  EXPECT_GT(r.stats.odcSimRefuted, 0u);
  EXPECT_GT(r.stats.odcReplacements, 0u);
  EXPECT_LT(g.coneSize(r.target), g.coneSize(fTgt));
}

TEST(Rewrite, PreservesFunctionAndNeverGrows) {
  Aig g;
  util::Random rng(31);
  const Lit f = test::randomFormula(g, rng, 5, 60);
  const auto tt = test::truthTable(g, f, 5);
  const Lit roots[] = {f};
  const Lit r = synth::rewrite(g, roots).front();
  EXPECT_EQ(test::truthTable(g, r, 5), tt);
  EXPECT_LE(g.coneSize(r), g.coneSize(f));
}

}  // namespace
}  // namespace cbq
