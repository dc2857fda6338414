// Coverage-rounding tests: file-on-disk I/O dispatch, BDD manager
// bookkeeping, solver reuse under sustained load.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "bdd/bdd.hpp"
#include "circuits/io.hpp"
#include "circuits/suite.hpp"
#include "helpers.hpp"
#include "mc/engines.hpp"
#include "quant/quantifier.hpp"
#include "sat/solver.hpp"
#include "sweep/sweeper.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

TEST(FileDispatch, ReadsAllThreeFormatsFromDisk) {
  const auto inst = circuits::makeInstance("ring", 4, false);
  const std::string base = ::testing::TempDir() + "/cbq_io_test";
  {
    std::ofstream out(base + ".aag");
    circuits::writeAag(inst.net, out);
  }
  {
    std::ofstream out(base + ".aig", std::ios::binary);
    circuits::writeAigBinary(inst.net, out);
  }
  {
    std::ofstream out(base + ".bench");
    circuits::writeBench(inst.net, out);
  }
  for (const char* ext : {".aag", ".aig", ".bench"}) {
    const auto net = circuits::readCircuitFile(base + ext);
    EXPECT_EQ(net.numLatches(), 4u) << ext;
    mc::Bmc bmc;
    EXPECT_EQ(bmc.check(net).verdict, mc::Verdict::Unsafe) << ext;
    std::remove((base + ext).c_str());
  }
}

TEST(Bdd, VariableRegistrationFixesOrder) {
  bdd::BddManager m;
  m.registerVar(7);
  m.registerVar(3);
  EXPECT_EQ(m.numLevels(), 2u);
  EXPECT_EQ(m.varAtLevel(0), 7u);
  EXPECT_EQ(m.varAtLevel(1), 3u);
  // Later var() calls reuse the registered levels.
  m.var(3);
  EXPECT_EQ(m.numLevels(), 2u);
}

TEST(Bdd, ClearCachesKeepsFunctions) {
  bdd::BddManager m;
  const auto a = m.var(0);
  const auto b = m.var(1);
  const auto f = m.bddXor(a, b);
  m.clearCaches();
  EXPECT_EQ(m.bddXor(a, b), f);  // unique table survives; same node
}

TEST(Sat, SustainedIncrementalLoad) {
  // Hundreds of interleaved clause additions and assumption solves on
  // one solver — the lifetime pattern of a sweeping session.
  sat::Solver s;
  util::Random rng(17);
  std::vector<sat::Var> vars;
  for (int i = 0; i < 60; ++i) vars.push_back(s.newVar());
  int satCount = 0;
  for (int round = 0; round < 300; ++round) {
    if (round % 3 == 0) {
      const sat::Lit cl[3] = {
          sat::Lit(vars[rng.below(60)], rng.flip()),
          sat::Lit(vars[rng.below(60)], rng.flip()),
          sat::Lit(vars[rng.below(60)], rng.flip())};
      if (!s.addClause(cl)) break;  // became unsat at level 0
    }
    const sat::Lit assume[2] = {
        sat::Lit(vars[rng.below(60)], rng.flip()),
        sat::Lit(vars[rng.below(60)], rng.flip())};
    const auto st = s.solve(assume);
    ASSERT_NE(st, sat::Status::Undef);
    if (st == sat::Status::Sat) {
      ++satCount;
      EXPECT_EQ(s.modelValue(assume[0]), sat::LBool::True);
      EXPECT_EQ(s.modelValue(assume[1]), sat::LBool::True);
    }
  }
  EXPECT_GT(satCount, 0);
}

TEST(QuantExtra, VarsOutsideSupportAreFreeToQuantify) {
  aig::Aig g;
  sweep::SweepContext ctx;
  quant::Quantifier q(g, {}, ctx);
  const aig::Lit f = g.mkAnd(g.pi(0), g.pi(1));
  const aig::VarId vars[] = {5, 6, 7};
  const auto r = q.quantifyAll(f, vars);
  EXPECT_EQ(r.f, f);
  EXPECT_TRUE(r.residual.empty());
}

TEST(QuantExtra, MaxConeGaugeTracksPeak) {
  aig::Aig g;
  util::Random rng(23);
  const auto f = test::randomFormula(g, rng, 6, 60);
  sweep::SweepContext ctx;
  quant::Quantifier q(g, {}, ctx);
  q.quantifyVarForced(f, 0);
  EXPECT_GT(q.stats().gauge("quant.max_cone"), 0.0);
}

TEST(Stats, StreamOperatorPrintsEverything) {
  obs::Metrics s;
  s.add("alpha", 3);
  s.set("beta", 1.5);
  std::ostringstream os;
  os << s;
  EXPECT_NE(os.str().find("alpha = 3"), std::string::npos);
  EXPECT_NE(os.str().find("beta = 1.5"), std::string::npos);
}

TEST(Suite, InstancesAreFreshlyGeneratedEachCall) {
  // standardSuite must not share AIG managers across calls (engines
  // mutate nothing, but tests rely on value semantics).
  auto a = circuits::standardSuite();
  auto b = circuits::standardSuite();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), 36u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].net.name, b[i].net.name);
    EXPECT_EQ(a[i].expected, b[i].expected);
  }
}

}  // namespace
}  // namespace cbq
