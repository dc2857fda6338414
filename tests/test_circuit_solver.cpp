// Differential fuzzing of the circuit-native CDCL against the CNF path
// (sat::Solver behind cnf::AigCnf, queried through the cnf::check*
// family): on the same random cones and under the same assumptions —
// the circuit solver focused, the CNF reference deciding every encoded
// variable — both must return the same verdicts, every Sat model must
// extend to a real satisfying input assignment (checked by dense
// Aig::evaluate), and accumulation of learnt gates / interrupts must
// never change an answer — only defer it. The sweep session built on the
// circuit solver is refereed against exhaustive truth tables.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "audit/audit.hpp"
#include "cnf/aig_cnf.hpp"
#include "helpers.hpp"
#include "sat/circuit_solver.hpp"
#include "sat/solver.hpp"
#include "sweep/sweep_context.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

using sat::Verdict;

constexpr int kVars = 6;

/// The reference engine: a clause-level solver behind the lazy Tseitin
/// encoder, bound to one manager.
struct CnfOracle {
  explicit CnfOracle(const aig::Aig& g) : cnf(g, solver) {}

  sat::Status solve(std::span<const aig::Lit> assumptions) {
    std::vector<sat::Lit> lits;
    for (const aig::Lit l : assumptions) lits.push_back(cnf.litFor(l));
    return solver.solveLimited(lits, -1);
  }

  bool addClause(std::span<const aig::Lit> clause) {
    std::vector<sat::Lit> lits;
    for (const aig::Lit l : clause) lits.push_back(cnf.litFor(l));
    return solver.addClause(lits);
  }

  sat::Solver solver;
  cnf::AigCnf cnf;
};

/// PI values 0..numVars-1 of the last Sat model of `engine`.
template <class Engine>
std::vector<bool> denseModel(const Engine& engine, int numVars) {
  std::vector<bool> m(static_cast<std::size_t>(numVars));
  for (int v = 0; v < numVars; ++v)
    m[static_cast<std::size_t>(v)] =
        engine.modelOf(static_cast<aig::VarId>(v));
  return m;
}

TEST(CircuitSolver, ConstantLiterals) {
  aig::Aig g;
  sat::CircuitSolver s(g);
  const aig::Lit assumeTrue[] = {aig::kTrue};
  EXPECT_EQ(s.solveLimited(assumeTrue, -1), sat::Status::Sat);
  const aig::Lit assumeFalse[] = {aig::kFalse};
  EXPECT_EQ(s.solveLimited(assumeFalse, -1), sat::Status::Unsat);
}

TEST(CircuitSolver, SingleGateAndLazySync) {
  aig::Aig g;
  sat::CircuitSolver s(g);  // bound before the nodes exist
  const aig::Lit f = g.mkAnd(g.pi(0), g.pi(1));
  const aig::Lit assume[] = {f};
  ASSERT_EQ(s.solveLimited(assume, -1), sat::Status::Sat);
  EXPECT_TRUE(s.modelOf(0));
  EXPECT_TRUE(s.modelOf(1));

  const aig::Lit contradiction[] = {f, !g.pi(0)};
  EXPECT_EQ(s.solveLimited(contradiction, -1), sat::Status::Unsat);
  EXPECT_FALSE(s.conflictCore().empty());
}

TEST(CircuitSolver, BudgetZeroIsUnknown) {
  aig::Aig g;
  util::Random rng(7);
  const aig::Lit a = test::randomFormula(g, rng, kVars, 40);
  const aig::Lit b = test::randomFormula(g, rng, kVars, 40);
  sat::CircuitSolver s(g);
  if (a != b && a != !b) {
    EXPECT_EQ(sat::checkEquiv(s, a, b, 0), Verdict::Unknown);
  }
}

TEST(CircuitSolver, InterruptThenResume) {
  aig::Aig g;
  util::Random rng(11);
  const aig::Lit f = test::randomFormula(g, rng, kVars, 60);
  if (f.isConstant()) GTEST_SKIP() << "degenerate formula";

  sat::CircuitSolver cir(g);
  cir.setInterrupt([] { return true; });
  EXPECT_EQ(sat::checkSat(cir, f), Verdict::Unknown);

  // Clearing the interrupt resumes the same solver (learnt gates and
  // heuristic state intact) to the CNF path's answer.
  cir.setInterrupt({});
  CnfOracle ref(g);
  EXPECT_EQ(sat::checkSat(cir, f), cnf::checkSat(ref.cnf, f));
}

class CircuitDiff : public ::testing::TestWithParam<int> {};

TEST_P(CircuitDiff, AgreesWithCnfOnRandomCones) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  aig::Aig g;
  const aig::Lit a = test::randomFormula(g, rng, kVars, 35);
  const aig::Lit b = test::randomFormula(g, rng, kVars, 35);

  CnfOracle ref(g);
  sat::CircuitSolver cir(g);

  // Satisfiability, with model validity on both sides.
  const Verdict satRef = cnf::checkSat(ref.cnf, a);
  const Verdict satCir = sat::checkSat(cir, a);
  EXPECT_EQ(satRef, satCir);
  if (satCir == Verdict::Holds) {
    EXPECT_TRUE(g.evaluate(a, denseModel(cir, kVars)));
    EXPECT_TRUE(g.evaluate(a, denseModel(ref.cnf, kVars)));
  }

  // Equivalence, refereed by the exhaustive truth table.
  const bool equiv = test::equivalentExhaustive(g, a, b, kVars);
  const Verdict eqRef = cnf::checkEquiv(ref.cnf, a, b);
  const Verdict eqCir = sat::checkEquiv(cir, a, b);
  EXPECT_EQ(eqRef, eqCir);
  EXPECT_EQ(eqCir == Verdict::Holds, equiv);
  if (eqCir == Verdict::Fails) {
    const std::vector<bool> m = denseModel(cir, kVars);
    EXPECT_NE(g.evaluate(a, m), g.evaluate(b, m));
  }

  // Constancy.
  EXPECT_EQ(cnf::checkConstant(ref.cnf, a, false),
            sat::checkConstant(cir, a, false));
  EXPECT_EQ(cnf::checkConstant(ref.cnf, a, true),
            sat::checkConstant(cir, a, true));

  // Implication.
  EXPECT_EQ(cnf::checkImplies(ref.cnf, a, b), sat::checkImplies(cir, a, b));
}

TEST_P(CircuitDiff, AgreesUnderAssumptionsAndFocus) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 409 + 29);
  aig::Aig g;
  const aig::Lit f = test::randomFormula(g, rng, kVars, 40);

  // Random PI assumptions (focus stays inside the cone of f plus the
  // assumed PIs, which are always decidable).
  std::vector<aig::Lit> assume;
  std::vector<int> forced(kVars, -1);  // -1 free, else forced value
  for (int v = 0; v < kVars; ++v) {
    if (!rng.flip()) continue;
    const bool val = rng.flip();
    forced[static_cast<std::size_t>(v)] = val ? 1 : 0;
    assume.push_back(g.pi(static_cast<aig::VarId>(v)) ^ !val);
  }
  assume.push_back(f);

  CnfOracle ref(g);
  sat::CircuitSolver cir(g);
  const aig::Lit roots[] = {f};
  cir.focusOn(roots);

  const sat::Status stRef = ref.solve(assume);
  const sat::Status stCir = cir.solveLimited(assume, -1);
  EXPECT_EQ(stRef, stCir);

  // Ground truth: does any minterm consistent with the assumptions
  // satisfy f?
  bool satisfiable = false;
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << kVars); ++m) {
    std::vector<bool> point(kVars);
    bool consistent = true;
    for (int v = 0; v < kVars; ++v) {
      point[static_cast<std::size_t>(v)] = ((m >> v) & 1) != 0;
      if (forced[static_cast<std::size_t>(v)] >= 0 &&
          point[static_cast<std::size_t>(v)] !=
              (forced[static_cast<std::size_t>(v)] == 1))
        consistent = false;
    }
    if (consistent && g.evaluate(f, point)) {
      satisfiable = true;
      break;
    }
  }
  EXPECT_EQ(stCir == sat::Status::Sat, satisfiable);
  if (stCir == sat::Status::Sat) {
    EXPECT_TRUE(g.evaluate(f, denseModel(cir, kVars)));
  }
}

TEST_P(CircuitDiff, LearntGatesAccumulateWithoutChangingAnswers) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 131 + 3);
  aig::Aig g;
  std::vector<aig::Lit> pool;
  for (int i = 0; i < 8; ++i)
    pool.push_back(test::randomFormula(g, rng, kVars, 25));

  // ONE persistent solver per engine answers a whole query stream;
  // proven equivalences are learned back as clauses mid-stream, the way
  // the sweeper does. Every verdict is refereed exhaustively.
  CnfOracle ref(g);
  sat::CircuitSolver cir(g);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i + 1; j < pool.size(); ++j) {
      const aig::Lit a = pool[i];
      const aig::Lit b = pool[j];
      const Verdict vRef = cnf::checkEquiv(ref.cnf, a, b);
      const Verdict vCir = sat::checkEquiv(cir, a, b);
      ASSERT_EQ(vRef, vCir) << "pair " << i << "," << j;
      ASSERT_EQ(vCir == Verdict::Holds,
                test::equivalentExhaustive(g, a, b, kVars));
      if (vCir == Verdict::Holds && a != b) {
        const aig::Lit fwd[] = {!a, b};
        const aig::Lit bwd[] = {a, !b};
        ASSERT_TRUE(cir.addClause(fwd));
        ASSERT_TRUE(cir.addClause(bwd));
        ASSERT_TRUE(ref.addClause(fwd));
        ASSERT_TRUE(ref.addClause(bwd));
      }
    }
  }
}

TEST_P(CircuitDiff, FocusChurnAgreesWithCnf) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 613 + 7);
  aig::Aig g;
  // Garbage miters over the same PIs: the cofactor/miter scratch a
  // quantification round leaves in the manager, fanning out of every PI.
  const auto garbage = [&](int count) {
    for (int i = 0; i < count; ++i)
      g.mkXor(test::randomFormula(g, rng, kVars, 12),
              test::randomFormula(g, rng, kVars, 12));
  };
  garbage(16);
  std::vector<aig::Lit> pool;
  for (int i = 0; i < 6; ++i)
    pool.push_back(test::randomFormula(g, rng, kVars, 25));

  CnfOracle ref(g);
  sat::CircuitSolver cir(g);
  for (int round = 0; round < 10; ++round) {
    const aig::Lit a = pool[rng.below(pool.size())];
    const aig::Lit b = pool[rng.below(pool.size())];
    garbage(4);
    // Odd rounds focus on a miter built after the previous focus, so
    // nodes synced while out of focus enter it.
    const aig::Lit miter = g.mkXor(a, b);
    std::vector<aig::Lit> roots{a, b};
    if (round % 2 == 1) roots = {miter};
    cir.focusOn(roots);
    const auto focused = audit::auditCircuitSolver(cir);
    ASSERT_TRUE(focused.ok()) << "round " << round << ": "
                              << focused.summary();
    garbage(4);  // the manager grows between focus and solve

    if (round % 2 == 1) {
      const Verdict v = sat::checkSat(cir, miter);
      ASSERT_EQ(v, cnf::checkSat(ref.cnf, miter)) << "round " << round;
      ASSERT_EQ(v == Verdict::Fails,
                test::equivalentExhaustive(g, a, b, kVars));
      if (v == Verdict::Holds) {
        EXPECT_TRUE(g.evaluate(miter, denseModel(cir, kVars)));
      }
    } else {
      const Verdict v = sat::checkEquiv(cir, a, b);
      ASSERT_EQ(v, cnf::checkEquiv(ref.cnf, a, b)) << "round " << round;
      ASSERT_EQ(v == Verdict::Holds,
                test::equivalentExhaustive(g, a, b, kVars));
      if (v == Verdict::Fails) {
        const std::vector<bool> m = denseModel(cir, kVars);
        EXPECT_NE(g.evaluate(a, m), g.evaluate(b, m)) << "round " << round;
      }
    }
    // A focus root under a PI assumption, which may lie outside the
    // focus: assigned, never propagated.
    const aig::Lit assume[] = {
        roots.front(),
        g.pi(static_cast<aig::VarId>(rng.below(kVars))) ^ rng.flip()};
    ASSERT_EQ(cir.solveLimited(assume, -1), ref.solve(assume))
        << "round " << round;
    const auto rep = audit::auditCircuitSolver(cir);
    ASSERT_TRUE(rep.ok()) << "round " << round << ": " << rep.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircuitDiff, ::testing::Range(0, 12));

/// Dense model of the session's last Sat answer over PIs 0..kVars-1.
std::vector<bool> sessionModel(const sweep::SweepContext& ctx) {
  std::vector<bool> m(kVars);
  for (int v = 0; v < kVars; ++v)
    m[static_cast<std::size_t>(v)] = ctx.modelOf(static_cast<aig::VarId>(v));
  return m;
}

class SessionQueries : public ::testing::TestWithParam<int> {};

TEST_P(SessionQueries, EquivAgreesWithExhaustive) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 53 + 17);
  aig::Aig g;
  std::vector<aig::Lit> pool;
  for (int i = 0; i < 6; ++i)
    pool.push_back(test::randomFormula(g, rng, kVars, 30));

  sweep::SweepContext ctx;
  EXPECT_TRUE(audit::auditSweepContext(ctx, g).ok());  // unbound: no-op
  ctx.bind(g);
  std::uint64_t queries = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i + 1; j < pool.size(); ++j) {
      const Verdict v = ctx.checkEquiv(pool[i], pool[j]);
      ++queries;
      ASSERT_EQ(v == Verdict::Holds,
                test::equivalentExhaustive(g, pool[i], pool[j], kVars));
      if (v == Verdict::Fails) {
        const std::vector<bool> m = sessionModel(ctx);
        ASSERT_NE(g.evaluate(pool[i], m), g.evaluate(pool[j], m));
      }
      if (v == Verdict::Holds) ctx.learnEquiv(pool[i], pool[j]);
    }
  }
  EXPECT_EQ(ctx.counters().queries, queries);
  const auto rep = audit::auditSweepContext(ctx, g);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

// The §2.2 don't-care query: a ≡ b wherever the care literal holds.
TEST_P(SessionQueries, EquivUnderCareAgreesWithExhaustive) {
  util::Random rng(static_cast<std::uint64_t>(GetParam()) * 71 + 5);
  aig::Aig g;
  sweep::SweepContext ctx;
  ctx.bind(g);
  for (int round = 0; round < 8; ++round) {
    const aig::Lit a = test::randomFormula(g, rng, kVars, 25);
    // Half the rounds compare against a near copy of a, so Holds under
    // a partial care set shows up, not only global equivalence.
    const aig::Lit b =
        rng.flip() ? g.mkXor(a, g.mkAnd(g.pi(static_cast<aig::VarId>(
                                            rng.below(kVars))),
                                        test::randomFormula(g, rng, kVars, 8)))
                   : test::randomFormula(g, rng, kVars, 25);
    // Care literal: a random cone or a single PI literal.
    const aig::Lit care =
        rng.flip() ? test::randomFormula(g, rng, kVars, 12)
                   : g.pi(static_cast<aig::VarId>(rng.below(kVars))) ^
                         rng.flip();

    const aig::Lit roots[] = {care, a, b};
    ctx.focusOn(roots);
    const Verdict v = ctx.checkEquivUnderCare(care, a, b);
    ASSERT_NE(v, Verdict::Unknown);

    bool holds = true;
    for (std::uint64_t mt = 0; mt < (std::uint64_t{1} << kVars); ++mt) {
      std::vector<bool> point(kVars);
      for (int i = 0; i < kVars; ++i)
        point[static_cast<std::size_t>(i)] = ((mt >> i) & 1) != 0;
      if (g.evaluate(care, point) &&
          g.evaluate(a, point) != g.evaluate(b, point)) {
        holds = false;
        break;
      }
    }
    ASSERT_EQ(v == Verdict::Holds, holds) << "round " << round;
    if (v == Verdict::Fails) {
      // The model must separate a and b INSIDE the care set.
      const std::vector<bool> m = sessionModel(ctx);
      EXPECT_TRUE(g.evaluate(care, m)) << "round " << round;
      EXPECT_NE(g.evaluate(a, m), g.evaluate(b, m)) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionQueries, ::testing::Range(0, 12));

TEST(SessionQueries, BankAndAnswersSurviveCompactionAndAuditStaysClean) {
  aig::Aig g;
  util::Random rng(3);
  const aig::Lit a = test::randomFormula(g, rng, kVars, 20);
  const aig::Lit b = test::randomFormula(g, rng, kVars, 20);
  if (a.node() == b.node()) GTEST_SKIP() << "strash merged the pair";

  sweep::SweepContext ctx;
  ctx.bind(g);
  const aig::Lit roots[] = {a, b};
  ctx.focusOn(roots);
  const Verdict v = ctx.checkEquiv(a, b);
  ASSERT_NE(v, Verdict::Unknown);
  std::vector<aig::VarId> support(kVars);
  std::iota(support.begin(), support.end(), aig::VarId{0});
  if (v == Verdict::Fails) ctx.bankModel(support);
  std::vector<bool> banked;  // pattern 0 of the bank
  for (const aig::VarId var : support)
    banked.push_back((ctx.bankWord(var, 0, 0) & 1u) != 0);

  // Compaction: move the live cones into a fresh manager and rebind.
  aig::Aig fresh;
  const auto moved = fresh.transferFrom(g, roots);
  g = std::move(fresh);
  ASSERT_TRUE(ctx.bind(g));

  // A banked refutation still separates the moved pair: the bank is
  // keyed by VarId, which the transfer keeps.
  if (v == Verdict::Fails) {
    EXPECT_EQ(ctx.bankedPatterns(), 1);
    EXPECT_NE(g.evaluate(moved[0], banked), g.evaluate(moved[1], banked));
  }

  // The fresh solver answers on the new manager and audits clean there.
  ctx.focusOn(moved);
  EXPECT_EQ(ctx.checkEquiv(moved[0], moved[1]), v);
  const auto rep = audit::auditSweepContext(ctx, g);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

// ----- arena auditor + corruption injection ---------------------------

/// A solver with a few stored constraint gates and a pending frontier,
/// for the auditor to chew on.
sat::CircuitSolver& solverWithGates(aig::Aig& g,
                                    std::unique_ptr<sat::CircuitSolver>& s) {
  util::Random rng(11);
  const aig::Lit f = test::randomFormula(g, rng, kVars, 30);
  s = std::make_unique<sat::CircuitSolver>(g);
  const aig::Lit clause1[] = {g.pi(0), g.pi(1), !g.pi(2)};
  const aig::Lit clause2[] = {!g.pi(0), g.pi(3)};
  EXPECT_TRUE(s->addClause(clause1));
  EXPECT_TRUE(s->addClause(clause2));
  const aig::Lit assume[] = {f};
  EXPECT_NE(s->solveLimited(assume, -1), sat::Status::Undef);
  return *s;
}

TEST(CircuitAudit, CleanSolverPasses) {
  aig::Aig g;
  std::unique_ptr<sat::CircuitSolver> holder;
  auto& s = solverWithGates(g, holder);
  const auto rep = audit::auditCircuitSolver(s);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(CircuitAudit, CorruptedArenaLitIsCaught) {
  aig::Aig g;
  std::unique_ptr<sat::CircuitSolver> holder;
  auto& s = solverWithGates(g, holder);
  // Point the first permanent gate's first input past the synced nodes.
  auto& arena = audit::Access::circuitArena(s);
  const auto gref = audit::Access::circuitPermanents(s).front();
  arena[gref + 2] = aig::Lit(static_cast<aig::NodeId>(1u << 20), false).raw();
  const auto rep = audit::auditCircuitSolver(s);
  EXPECT_TRUE(rep.has("circuit.arena.dangling-lit")) << rep.summary();
}

TEST(CircuitAudit, OutOfFocusFanoutIsCaught) {
  aig::Aig g;
  util::Random rng(5);
  const aig::Lit f = test::randomFormula(g, rng, kVars, 30);
  test::randomFormula(g, rng, kVars, 30);
  sat::CircuitSolver s(g);
  const aig::Lit roots[] = {f};
  s.focusOn(roots);
  ASSERT_TRUE(audit::auditCircuitSolver(s).ok());
  // Splice an out-of-focus AND into the list of its in-focus fanin, as a
  // focus change that forgot to drop the old parents would.
  auto& head = audit::Access::circuitHead(s);
  auto& next = audit::Access::circuitNextEdge(s);
  bool spliced = false;
  for (aig::NodeId m = 0; m < g.numNodes() && !spliced; ++m) {
    if (!g.isAnd(m) || audit::Access::circuitInFocus(s, m)) continue;
    const aig::NodeId n = g.fanin0(m).node();
    if (!audit::Access::circuitInFocus(s, n)) continue;
    next[2 * m] = head[n];
    head[n] = 2 * m;
    spliced = true;
  }
  ASSERT_TRUE(spliced);
  const auto rep = audit::auditCircuitSolver(s);
  EXPECT_TRUE(rep.has("circuit.focus.fanout")) << rep.summary();
}

TEST(CircuitAudit, DroppedFanoutEdgeIsCaught) {
  aig::Aig g;
  std::unique_ptr<sat::CircuitSolver> holder;
  auto& s = solverWithGates(g, holder);  // unfocused: every AND is linked
  auto& head = audit::Access::circuitHead(s);
  auto& next = audit::Access::circuitNextEdge(s);
  const aig::NodeId n = g.piNodeOf(0);
  ASSERT_NE(head[n], audit::Access::kCircuitNoEdge);
  head[n] = next[head[n]];
  const auto rep = audit::auditCircuitSolver(s);
  EXPECT_TRUE(rep.has("circuit.focus.fanout")) << rep.summary();
}

TEST(CircuitAudit, DroppedWatcherIsCaught) {
  aig::Aig g;
  std::unique_ptr<sat::CircuitSolver> holder;
  auto& s = solverWithGates(g, holder);
  // Silently drop one watcher of a stored gate.
  auto& watches = audit::Access::circuitWatches(s);
  const auto gref = audit::Access::circuitPermanents(s).front();
  bool dropped = false;
  for (auto& list : watches) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].gref == gref) {
        list[i] = list.back();
        list.pop_back();
        dropped = true;
        break;
      }
    }
    if (dropped) break;
  }
  ASSERT_TRUE(dropped);
  const auto rep = audit::auditCircuitSolver(s);
  EXPECT_TRUE(rep.has("circuit.watch.missing")) << rep.summary();
}

}  // namespace
}  // namespace cbq
