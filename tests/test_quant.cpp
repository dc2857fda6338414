// Core-contribution tests: circuit-based quantification must agree with
// the BDD reference ∃x.f = f|x=0 ∨ f|x=1 on randomized formulas, across
// every pipeline configuration; multi-variable scheduling must fully
// eliminate the requested support; partial quantification must abort and
// report residuals as specified in §4.

#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "helpers.hpp"
#include "quant/quantifier.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

using aig::Aig;
using aig::Lit;
using aig::VarId;
using quant::Quantifier;
using quant::QuantOptions;

/// Reference ∃vars.f computed with BDDs.
std::vector<bool> referenceExists(const Aig& g, Lit f,
                                  std::span<const VarId> vars, int numVars) {
  bdd::BddManager m;
  for (int v = 0; v < numVars; ++v)
    m.registerVar(static_cast<VarId>(v));
  const bdd::BddRef fb = bdd::aigToBdd(g, f, m);
  const bdd::BddRef ex = m.exists(fb, vars);
  std::vector<bool> tt;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << numVars); ++mask) {
    std::unordered_map<VarId, bool> a;
    for (int v = 0; v < numVars; ++v)
      a.emplace(static_cast<VarId>(v), ((mask >> v) & 1) != 0);
    tt.push_back(m.evaluate(ex, a));
  }
  return tt;
}

class QuantRandomized : public ::testing::TestWithParam<int> {};

TEST_P(QuantRandomized, SingleVarMatchesBddReference) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 211 + 1);
  Aig g;
  const Lit f = test::randomFormula(g, rng, 5, 50);
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  for (VarId v = 0; v < 5; ++v) {
    const Lit r = q.quantifyVarForced(f, v);
    EXPECT_FALSE(g.dependsOn(r, v));
    const VarId vars[] = {v};
    EXPECT_EQ(test::truthTable(g, r, 5), referenceExists(g, f, vars, 5))
        << "var " << v;
  }
}

TEST_P(QuantRandomized, PipelineVariantsAllCorrect) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 223 + 2);
  Aig g;
  const Lit f = test::randomFormula(g, rng, 5, 50);
  const VarId v = 1;
  const VarId vars[] = {v};
  const auto expect = referenceExists(g, f, vars, 5);

  for (const bool merge : {false, true}) {
    for (const bool opt : {false, true}) {
      QuantOptions o;
      o.mergePhase = merge;
      o.optPhase = opt;
      sweep::SweepContext ctx;
      Quantifier q(g, o, ctx);
      const Lit r = q.quantifyVarForced(f, v);
      EXPECT_EQ(test::truthTable(g, r, 5), expect)
          << "merge=" << merge << " opt=" << opt;
    }
  }
}

TEST_P(QuantRandomized, MultiVarMatchesBddReference) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 227 + 3);
  Aig g;
  const Lit f = test::randomFormula(g, rng, 6, 60);
  const VarId vars[] = {0, 2, 4};
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  const auto r = q.quantifyAll(f, vars);
  EXPECT_TRUE(r.residual.empty());  // defaults should manage these sizes
  for (const VarId v : vars) EXPECT_FALSE(g.dependsOn(r.f, v));
  EXPECT_EQ(test::truthTable(g, r.f, 6), referenceExists(g, f, vars, 6));
}

TEST_P(QuantRandomized, QuantifyingFullSupportYieldsConstant) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 229 + 4);
  Aig g;
  const Lit f = test::randomFormula(g, rng, 5, 40);
  const VarId vars[] = {0, 1, 2, 3, 4};
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  const auto r = q.quantifyAll(f, vars);
  ASSERT_TRUE(r.residual.empty());
  ASSERT_TRUE(r.f.isConstant());
  // ∃all.f = true iff f is satisfiable.
  const auto tt = test::truthTable(g, f, 5);
  const bool satisfiable =
      std::any_of(tt.begin(), tt.end(), [](bool x) { return x; });
  EXPECT_EQ(r.f.isTrue(), satisfiable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantRandomized, ::testing::Range(0, 10));

TEST(Quant, TrivialCases) {
  Aig g;
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  // Constants and non-support variables.
  EXPECT_EQ(q.quantifyVarForced(aig::kTrue, 0), aig::kTrue);
  EXPECT_EQ(q.quantifyVarForced(aig::kFalse, 0), aig::kFalse);
  const Lit f = g.mkAnd(g.pi(0), g.pi(1));
  EXPECT_EQ(q.quantifyVarForced(f, 9), f);
  // ∃x.x = true; ∃x.!x = true.
  EXPECT_EQ(q.quantifyVarForced(g.pi(0), 0), aig::kTrue);
  EXPECT_EQ(q.quantifyVarForced(!g.pi(0), 0), aig::kTrue);
  // ∃x.(x & y) = y.
  EXPECT_EQ(q.quantifyVarForced(f, 0), g.pi(1));
}

TEST(Quant, EqualCofactorsShortCircuit) {
  Aig g;
  // f = y | (x & !x & ...) — x vanishes: cofactors equal.
  const Lit f = g.mkOr(g.pi(1), g.mkAnd(g.pi(0), aig::kFalse));
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  EXPECT_EQ(q.quantifyVarForced(f, 0), g.pi(1));
  EXPECT_EQ(q.stats().count("quant.vars_trivial"), 1);
}

TEST(Quant, OppositeCofactorsGiveTautology) {
  Aig g;
  // f = x XOR y: cofactors w.r.t. x are y and !y -> ∃x.f = true.
  const Lit f = g.mkXor(g.pi(0), g.pi(1));
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  EXPECT_EQ(q.quantifyVarForced(f, 0), aig::kTrue);
}

TEST(Quant, AbortOnTinyGrowthBudget) {
  // A formula where eliminating the variable genuinely duplicates logic:
  // growthLimit 0 with no slack must abort.
  Aig g;
  util::Random rng(77);
  const Lit f = test::randomFormula(g, rng, 6, 80);
  VarId pick = 0;
  for (VarId v = 0; v < 6; ++v)
    if (g.dependsOn(f, v)) pick = v;
  QuantOptions o;
  o.growthLimit = 0.0;
  o.growthSlack = 0;
  o.mergePhase = false;
  o.optPhase = false;
  sweep::SweepContext ctx;
  Quantifier q(g, o, ctx);
  const auto r = q.quantifyVar(f, pick);
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(q.stats().count("quant.vars_aborted"), 1);
}

TEST(Quant, PartialQuantificationReportsResiduals) {
  Aig g;
  util::Random rng(78);
  const Lit f = test::randomFormula(g, rng, 6, 80);
  QuantOptions o;
  o.growthLimit = 0.0;
  o.growthSlack = 0;
  o.mergePhase = false;
  o.optPhase = false;
  o.abortRetries = 0;
  sweep::SweepContext ctx;
  Quantifier q(g, o, ctx);
  const auto support = g.supportVars(f);
  const auto r = q.quantifyAll(f, support);
  // Whatever was aborted must still be in the result's support; whatever
  // is absent from `residual` must be gone.
  const auto after = g.supportVars(r.f);
  for (const VarId v : r.residual)
    EXPECT_TRUE(std::binary_search(after.begin(), after.end(), v));
  for (const VarId v : support) {
    const bool res =
        std::binary_search(r.residual.begin(), r.residual.end(), v);
    if (!res) {
      EXPECT_FALSE(std::binary_search(after.begin(), after.end(), v));
    }
  }
}

TEST(Quant, ForcedModeIgnoresGrowthBudget) {
  Aig g;
  util::Random rng(79);
  const Lit f = test::randomFormula(g, rng, 5, 60);
  QuantOptions o;
  o.growthLimit = 0.0;
  o.growthSlack = 0;
  sweep::SweepContext ctx;
  Quantifier q(g, o, ctx);
  const Lit r = q.quantifyVarForced(f, 0);
  EXPECT_FALSE(g.dependsOn(r, 0));
}

TEST(Quant, StatsAccumulateAcrossCalls) {
  Aig g;
  util::Random rng(80);
  const Lit f = test::randomFormula(g, rng, 5, 50);
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  q.quantifyVarForced(f, 0);
  q.quantifyVarForced(f, 1);
  EXPECT_GE(q.stats().count("quant.vars_attempted"), 2);
  EXPECT_GE(q.stats().count("quant.cone_before_total"), 0);
}

// ----- §3 quantification by substitution (in-lining) ------------------------

TEST(QuantSubstitution, LiteralConjunct) {
  Aig g;
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  // ∃v.(v ∧ R) = R[v := 1].
  const Lit v = g.pi(0);
  const Lit rest = g.mkOr(g.pi(1), g.mkAnd(v, g.pi(2)));
  const Lit f = g.mkAnd(v, rest);
  const auto r = q.quantifyBySubstitution(f, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(g.dependsOn(*r, 0));
  EXPECT_TRUE(test::equivalentExhaustive(
      g, *r, g.mkOr(g.pi(1), g.pi(2)), 3));
  EXPECT_EQ(q.stats().count("quant.vars_substituted"), 1);
}

TEST(QuantSubstitution, NegatedLiteralConjunct) {
  Aig g;
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  const Lit v = g.pi(0);
  const Lit f = g.mkAnd(!v, g.mkOr(v, g.pi(1)));
  const auto r = q.quantifyBySubstitution(f, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(test::equivalentExhaustive(g, *r, g.pi(1), 2));
}

TEST(QuantSubstitution, DefinitionConjunct) {
  Aig g;
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  // ∃v.((v ↔ a&b) ∧ (v | c)) = (a&b) | c.
  const Lit v = g.pi(0);
  const Lit def = g.mkAnd(g.pi(1), g.pi(2));
  const Lit f = g.mkAnd(g.mkXnor(v, def), g.mkOr(v, g.pi(3)));
  const auto r = q.quantifyBySubstitution(f, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(g.dependsOn(*r, 0));
  EXPECT_TRUE(test::equivalentExhaustive(g, *r, g.mkOr(def, g.pi(3)), 4));
}

TEST(QuantSubstitution, ComplementedDefinitionForms) {
  Aig g;
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  const Lit v = g.pi(0);
  const Lit gdef = g.mkXor(g.pi(1), g.pi(2));
  // XNOR(¬v, g) ≡ v ↔ ¬g; the rule must recover def = ¬g.
  const Lit f = g.mkAnd(g.mkXnor(!v, gdef), g.mkAnd(v, g.pi(3)));
  const auto r = q.quantifyBySubstitution(f, 0);
  ASSERT_TRUE(r.has_value());
  const Lit expect = g.mkAnd(!gdef, g.pi(3));
  EXPECT_TRUE(test::equivalentExhaustive(g, *r, expect, 4));
}

TEST(QuantSubstitution, RejectsSelfReferentialDefinition) {
  Aig g;
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  // v ↔ (v & a) is not a definition (g depends on v): no substitution.
  const Lit v = g.pi(0);
  const Lit f = g.mkAnd(g.mkXnor(v, g.mkAnd(v, g.pi(1))), g.pi(2));
  EXPECT_FALSE(q.quantifyBySubstitution(f, 0).has_value());
}

TEST(QuantSubstitution, NoDefinitionMeansNullopt) {
  Aig g;
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  const Lit f = g.mkOr(g.pi(0), g.pi(1));  // OR at top: no conjuncts
  EXPECT_FALSE(q.quantifyBySubstitution(f, 0).has_value());
  const Lit f2 = g.mkAnd(g.mkOr(g.pi(0), g.pi(1)), g.pi(2));
  EXPECT_FALSE(q.quantifyBySubstitution(f2, 0).has_value());
}

TEST(QuantSubstitution, AgreesWithGeneralPipelineRandomized) {
  util::Random rng(314);
  for (int round = 0; round < 10; ++round) {
    Aig g;
    const Lit v = g.pi(0);
    const Lit def = test::randomFormula(g, rng, 4, 15);  // uses vars 0..3
    if (g.dependsOn(def, 0)) continue;
    const Lit rest = test::randomFormula(g, rng, 5, 25);
    const Lit f = g.mkAnd(g.mkXnor(v, def), rest);

    QuantOptions noSub;
    noSub.useSubstitution = false;
    sweep::SweepContext ctx;
    Quantifier qGeneral(g, noSub, ctx);
    const Lit viaCofactors = qGeneral.quantifyVarForced(f, 0);

    Quantifier qSub(g, {}, ctx);
    const auto viaSub = qSub.quantifyBySubstitution(f, 0);
    ASSERT_TRUE(viaSub.has_value()) << "round " << round;
    EXPECT_TRUE(test::equivalentExhaustive(g, viaCofactors, *viaSub, 5))
        << "round " << round;
  }
}

TEST(QuantSubstitution, FastPathUsedByQuantifyVar) {
  Aig g;
  QuantOptions opts;  // substitution on by default
  sweep::SweepContext ctx;
  Quantifier q(g, opts, ctx);
  const Lit v = g.pi(0);
  const Lit f = g.mkAnd(g.mkXnor(v, g.pi(1)), g.mkOr(v, g.pi(2)));
  const auto r = q.quantifyVar(f, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(q.stats().count("quant.vars_substituted"), 1);
  EXPECT_TRUE(test::equivalentExhaustive(g, *r, g.mkOr(g.pi(1), g.pi(2)),
                                         3));
}

TEST(Quant, SchedulingPrefersCheaperVariable) {
  // Variable 0 feeds one gate; variable 1 feeds a deep cone. quantifyAll
  // must succeed either way, and defaults should eliminate both.
  Aig g;
  util::Random rng(81);
  Lit deep = g.pi(1);
  for (int i = 0; i < 12; ++i)
    deep = g.mkXor(deep, test::randomFormula(g, rng, 4, 6));
  const Lit f = g.mkOr(g.mkAnd(g.pi(0), g.pi(2)), deep);
  const VarId vars[] = {0, 1};
  sweep::SweepContext ctx;
  Quantifier q(g, {}, ctx);
  const auto r = q.quantifyAll(f, vars);
  EXPECT_TRUE(r.residual.empty());
  EXPECT_FALSE(g.dependsOn(r.f, 0));
  EXPECT_FALSE(g.dependsOn(r.f, 1));
}

}  // namespace
}  // namespace cbq
