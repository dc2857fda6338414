// Micro-benchmarks of the compare-point kernel shared by the §2.1 merge
// phase and the §2.2 DC/ODC phase: one sweep::refine call (care kTrue, as
// the sweeper calls it, and care ¬fRef, as the input-DC phase does) and
// the ODC phase's forcing loop (forcingChanges for both values of every
// node of the target's cone). Each runs on an exhaustive arena over a
// 10-input cone and on a random arena over a 16-input cone, whose refine
// proves its candidates with SAT.
//
//   ./build/bench/micro_sweep --benchmark_min_time=0.2

#include <benchmark/benchmark.h>

#include <vector>

#include "aig/aig.hpp"
#include "sweep/signatures.hpp"
#include "sweep/sweep_context.hpp"
#include "sweep/sweeper.hpp"
#include "util/random.hpp"

namespace {

using cbq::aig::Aig;
using cbq::aig::Lit;
using cbq::aig::VarId;
using cbq::sweep::Signatures;

/// A cofactor-like pair over `vars` inputs: a reference and a larger
/// target built from random AND/XOR/MUX steps over a shared pool; the
/// reference includes the XOR of every input so the support is all of
/// them.
struct Pair {
  Aig g;
  Lit fRef, fTgt;
  std::vector<cbq::aig::NodeId> joint, target;
  std::vector<VarId> support;

  explicit Pair(int vars) {
    cbq::util::Random rng(static_cast<std::uint64_t>(vars) * 7 + 1);
    std::vector<Lit> pool;
    Lit all = cbq::aig::kFalse;
    for (int v = 0; v < vars; ++v) {
      pool.push_back(g.pi(static_cast<VarId>(v)));
      all = g.mkXor(all, pool.back());
    }
    // Operands come from the last 24 pool entries, so the cones are deep
    // and most steps stay in the root's cone.
    auto pick = [&] {
      const std::size_t window = pool.size() < 24 ? pool.size() : 24;
      return pool[pool.size() - 1 - rng.below(window)] ^ rng.flip();
    };
    auto grow = [&](int ops) {
      for (int i = 0; i < ops; ++i) {
        const Lit a = pick();
        const Lit b = pick();
        const Lit c = pick();
        switch (rng.below(3)) {
          case 0:
            pool.push_back(g.mkAnd(a, b));
            break;
          case 1:
            pool.push_back(g.mkXor(a, b));
            break;
          default:
            pool.push_back(g.mkMux(a, b, c));
            break;
        }
      }
      return pool.back();
    };
    fRef = g.mkAnd(grow(40), all);
    fTgt = grow(160);
    const Lit both[] = {fRef, fTgt};
    const Lit tgt[] = {fTgt};
    joint = g.coneAnds(both);
    target = g.coneAnds(tgt);
    support = g.supportVars(both);
  }

  [[nodiscard]] Signatures arena(cbq::util::Random& rng) const {
    return Signatures(g, joint, support, rng, 2, 11);
  }
};

Pair& pairOf(int vars) {
  static Pair exhaustive(10);
  static Pair random(16);
  return vars == 10 ? exhaustive : random;
}

/// range(0): inputs (10 exhaustive, 16 random); range(1): 0 care kTrue,
/// 1 care ¬fRef. A random arena grows during refine, so each iteration
/// builds its arena and session afresh (untimed).
void BM_Refine(benchmark::State& state) {
  Pair& p = pairOf(static_cast<int>(state.range(0)));
  const Lit care = state.range(1) == 0 ? cbq::aig::kTrue : !p.fRef;
  const Lit both[] = {p.fRef, p.fTgt};
  std::size_t merges = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cbq::util::Random rng(3);
    Signatures sigs = p.arena(rng);
    if (sigs.exhaustive() != (state.range(0) == 10)) {
      state.SkipWithError("unexpected arena mode");
      break;
    }
    cbq::sweep::SweepContext ctx;
    ctx.bind(p.g);
    if (!sigs.exhaustive()) ctx.focusOn(both);
    cbq::sweep::SweepStats stats;
    cbq::aig::NodeMap map;
    state.ResumeTiming();
    benchmark::DoNotOptimize(cbq::sweep::refine(p.g, p.target, p.support,
                                                sigs, care, ctx, 8, 2000, rng,
                                                stats, map));
    merges += map.size();
  }
  state.counters["merges"] = benchmark::Counter(
      static_cast<double>(merges), benchmark::Counter::kAvgIterations);
  state.counters["cone"] = static_cast<double>(p.target.size());
}
BENCHMARK(BM_Refine)->ArgsProduct({{10, 16}, {0, 1}});

/// The ODC phase's simulation filter: both forced values of every node of
/// the target's cone against the target root, under care ¬fRef.
void BM_OdcForcing(benchmark::State& state) {
  Pair& p = pairOf(static_cast<int>(state.range(0)));
  cbq::util::Random rng(5);
  Signatures sigs = p.arena(rng);
  std::size_t observable = 0;
  for (auto _ : state) {
    for (const auto n : p.target)
      for (const bool value : {false, true})
        observable += sigs.forcingChanges(n, value, p.fTgt.node(), !p.fRef);
  }
  benchmark::DoNotOptimize(observable);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * p.target.size()));
}
BENCHMARK(BM_OdcForcing)->Arg(10)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
