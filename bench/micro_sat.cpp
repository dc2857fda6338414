// Micro-benchmarks of the CDCL solvers: random 3-SAT near the phase
// transition, pigeonhole proofs, the assumption-batch pattern the
// sweeping engine relies on (one clause DB, many factorized checks), and
// the CNF-vs-circuit solver duel on sweep-style cone queries — the same
// check, once through the Tseitin encode + clause solver and once through
// the circuit-native CDCL that propagates on the AIG directly.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/aig_cnf.hpp"
#include "sat/circuit_solver.hpp"
#include "sat/solver.hpp"
#include "util/random.hpp"

namespace {

using cbq::sat::Lit;
using cbq::sat::Solver;
using cbq::sat::Var;

void addRandom3Sat(Solver& s, cbq::util::Random& rng, int vars,
                   int clauses) {
  for (int v = 0; v < vars; ++v) s.newVar();
  for (int c = 0; c < clauses; ++c) {
    const Lit cl[3] = {
        Lit(static_cast<Var>(rng.below(vars)), rng.flip()),
        Lit(static_cast<Var>(rng.below(vars)), rng.flip()),
        Lit(static_cast<Var>(rng.below(vars)), rng.flip()),
    };
    s.addClause(cl);
  }
}

void BM_Random3SatPhaseTransition(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Solver s;
    cbq::util::Random rng(seed++);
    addRandom3Sat(s, rng, vars, static_cast<int>(vars * 4.26));
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_Random3SatPhaseTransition)->Arg(50)->Arg(100)->Arg(150);

void BM_PigeonholeUnsat(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  const int pigeons = holes + 1;
  for (auto _ : state) {
    Solver s;
    std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
    for (auto& row : p)
      for (auto& v : row) v = s.newVar();
    for (int i = 0; i < pigeons; ++i) {
      std::vector<Lit> clause;
      for (int h = 0; h < holes; ++h) clause.emplace_back(p[i][h], false);
      s.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
      for (int i = 0; i < pigeons; ++i)
        for (int j = i + 1; j < pigeons; ++j)
          s.addClause({Lit(p[i][h], true), Lit(p[j][h], true)});
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_PigeonholeUnsat)->Arg(5)->Arg(6)->Arg(7);

void BM_AssumptionBatchSharedDb(benchmark::State& state) {
  // The §2.1 pattern: load the clause DB once, fire many small
  // equivalence-style queries through assumptions only.
  Solver s;
  cbq::util::Random rng(99);
  const int vars = 200;
  addRandom3Sat(s, rng, vars, 700);  // satisfiable region
  for (auto _ : state) {
    const Lit assumptions[2] = {
        Lit(static_cast<Var>(rng.below(vars)), rng.flip()),
        Lit(static_cast<Var>(rng.below(vars)), rng.flip()),
    };
    benchmark::DoNotOptimize(s.solve(assumptions));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AssumptionBatchSharedDb);

void BM_BudgetedSolve(benchmark::State& state) {
  // Resource-limited checks as used for sweeping compare points.
  Solver s;
  cbq::util::Random rng(7);
  addRandom3Sat(s, rng, 300, 1280);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.solveLimited({}, state.range(0)));
  }
}
BENCHMARK(BM_BudgetedSolve)->Arg(10)->Arg(100)->Arg(1000);

// ----- CNF vs circuit solver on sweep-style cone queries --------------

constexpr int kConeVars = 24;

/// Grows a random AND cone of ~`ands` nodes over kConeVars inputs and
/// returns two structurally different but equivalent roots: a balanced
/// and a shuffled left-fold conjunction of the same internal literals —
/// exactly the shape of a sweeping compare point.
struct ConePair {
  cbq::aig::Aig g;
  cbq::aig::Lit balanced = cbq::aig::kFalse;
  cbq::aig::Lit folded = cbq::aig::kFalse;
};

void buildCone(ConePair& cone, std::size_t ands, std::uint64_t seed) {
  cbq::util::Random rng(seed);
  auto& g = cone.g;
  std::vector<cbq::aig::Lit> pool;
  for (int v = 0; v < kConeVars; ++v) pool.push_back(g.pi(v));
  while (g.numAnds() < ands) {
    const cbq::aig::Lit a =
        pool[rng.below(pool.size())] ^ rng.flip();
    const cbq::aig::Lit b =
        pool[rng.below(pool.size())] ^ rng.flip();
    pool.push_back(g.mkAnd(a, b));
  }
  // The compare-point pair: same conjuncts, different association.
  std::vector<cbq::aig::Lit> conj;
  for (int i = 0; i < 16; ++i)
    conj.push_back(pool[pool.size() - 1 - rng.below(pool.size() / 2)]);
  cone.balanced = g.mkAndAll(conj);
  std::shuffle(conj.begin(), conj.end(),
               std::mt19937_64(seed ^ 0x9e3779b97f4a7c15ull));
  cone.folded = cbq::aig::kTrue;
  for (const cbq::aig::Lit l : conj) cone.folded = g.mkAnd(cone.folded, l);
}

// One query per iteration on a fresh engine: the CNF side pays encode +
// solve, the circuit side solves on the graph as-is.

void BM_ConeEquivCnf(benchmark::State& state) {
  ConePair cone;
  buildCone(cone, static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    Solver s;
    cbq::cnf::AigCnf cnf(cone.g, s);
    const cbq::aig::Lit roots[] = {cone.balanced, cone.folded};
    cnf.focusOn(roots);
    benchmark::DoNotOptimize(
        cbq::cnf::checkEquiv(cnf, cone.balanced, cone.folded));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ConeEquivCircuit(benchmark::State& state) {
  ConePair cone;
  buildCone(cone, static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    cbq::sat::CircuitSolver s(cone.g);
    const cbq::aig::Lit roots[] = {cone.balanced, cone.folded};
    s.focusOn(roots);
    benchmark::DoNotOptimize(
        cbq::sat::checkEquiv(s, cone.balanced, cone.folded));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ConeSatCnf(benchmark::State& state) {
  ConePair cone;
  buildCone(cone, static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    Solver s;
    cbq::cnf::AigCnf cnf(cone.g, s);
    const cbq::aig::Lit roots[] = {cone.balanced};
    cnf.focusOn(roots);
    benchmark::DoNotOptimize(cbq::cnf::checkSat(cnf, cone.balanced));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ConeSatCircuit(benchmark::State& state) {
  ConePair cone;
  buildCone(cone, static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    cbq::sat::CircuitSolver s(cone.g);
    const cbq::aig::Lit roots[] = {cone.balanced};
    s.focusOn(roots);
    benchmark::DoNotOptimize(cbq::sat::checkSat(s, cone.balanced));
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ConeEquivCnf)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_ConeEquivCircuit)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_ConeSatCnf)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_ConeSatCircuit)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
