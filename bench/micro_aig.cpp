// Micro-benchmarks of the AIG substrate: construction throughput,
// cofactoring, composition, simulation, cross-manager transfer and the
// sweeper's signature-resimulation kernel in its column-major and
// node-major shapes.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "aig/aig.hpp"
#include "circuits/suite.hpp"
#include "sweep/signatures.hpp"
#include "util/random.hpp"
#include "util/var_table.hpp"

namespace {

using cbq::aig::Aig;
using cbq::aig::Lit;
using cbq::aig::VarId;

Lit buildRandomCone(Aig& g, cbq::util::Random& rng, int vars, int ops) {
  std::vector<Lit> pool;
  for (int v = 0; v < vars; ++v) pool.push_back(g.pi(static_cast<VarId>(v)));
  for (int i = 0; i < ops; ++i) {
    const Lit a = pool[rng.below(pool.size())] ^ rng.flip();
    const Lit b = pool[rng.below(pool.size())] ^ rng.flip();
    pool.push_back(rng.flip() ? g.mkAnd(a, b) : g.mkXor(a, b));
  }
  return pool.back();
}

void BM_MkAndStrash(benchmark::State& state) {
  for (auto _ : state) {
    Aig g;
    cbq::util::Random rng(7);
    benchmark::DoNotOptimize(
        buildRandomCone(g, rng, 16, static_cast<int>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MkAndStrash)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Cofactor(benchmark::State& state) {
  Aig g;
  cbq::util::Random rng(11);
  const Lit f = buildRandomCone(g, rng, 16, static_cast<int>(state.range(0)));
  VarId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.cofactor(f, v, true));
    v = (v + 1) % 16;
  }
}
BENCHMARK(BM_Cofactor)->Arg(1000)->Arg(10000);

void BM_Compose(benchmark::State& state) {
  Aig g;
  cbq::util::Random rng(13);
  const Lit f = buildRandomCone(g, rng, 16, static_cast<int>(state.range(0)));
  const Lit sub = buildRandomCone(g, rng, 16, 64);
  const std::vector<cbq::aig::VarSub> map{{3, sub}, {7, !sub}};
  for (auto _ : state) benchmark::DoNotOptimize(g.compose(f, map));
}
BENCHMARK(BM_Compose)->Arg(1000)->Arg(10000);

void BM_Simulate64(benchmark::State& state) {
  Aig g;
  cbq::util::Random rng(17);
  const Lit f = buildRandomCone(g, rng, 16, static_cast<int>(state.range(0)));
  cbq::util::VarTable<std::uint64_t> words;
  for (VarId v = 0; v < 16; ++v) words.set(v, rng.next64());
  const Lit roots[] = {f};
  for (auto _ : state) benchmark::DoNotOptimize(g.simulate(roots, words));
  state.SetItemsProcessed(state.iterations() * state.range(0) * 64);
}
BENCHMARK(BM_Simulate64)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_TransferCompact(benchmark::State& state) {
  Aig g;
  cbq::util::Random rng(19);
  const Lit f = buildRandomCone(g, rng, 16, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Aig fresh;
    benchmark::DoNotOptimize(fresh.transferFrom(g, {{f}}));
  }
}
BENCHMARK(BM_TransferCompact)->Arg(1000)->Arg(10000);

// --- signature resimulation: the sweeping hot loop ---------------------
//
// Two shapes of the same 16-word recomputation over one cone:
//   SigResimReference — column-major, one word column at a time
//   SigResimSimd      — node-major contiguous word rows
// Items processed = nodes * words * 64 simulated bits.

constexpr int kSigWords = 16;

/// The cone under test is the giant family's full root cone (~16 ANDs per
/// width unit): functionally diverse mixing logic that neither the
/// construction rewrite rules nor sharing can collapse, so the size axis
/// is honest — buildRandomCone's final node only reaches a tiny fraction
/// of a large random pool.
struct SigBench {
  cbq::mc::Network net;
  std::vector<cbq::aig::NodeId> order;
  std::vector<VarId> support;
  std::unique_ptr<cbq::sweep::Signatures> sigs;

  explicit SigBench(int ops)
      : net(cbq::circuits::makeInstance("giant", ops / 16 > 0 ? ops / 16 : 1,
                                        true)
                .net) {
    cbq::util::Random rng(29);
    std::vector<Lit> roots = net.next;
    roots.push_back(net.bad);
    order = net.aig.coneAnds(roots);
    support = net.aig.supportVars(roots);
    sigs = std::make_unique<cbq::sweep::Signatures>(
        net.aig, order, support, rng, kSigWords, kSigWords);
  }
};

void BM_SigResimReference(benchmark::State& state) {
  SigBench b(static_cast<int>(state.range(0)));
  for (auto _ : state) b.sigs->resimulateAllReference();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(b.order.size()) *
                          kSigWords * 64);
}
BENCHMARK(BM_SigResimReference)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_SigResimSimd(benchmark::State& state) {
  SigBench b(static_cast<int>(state.range(0)));
  for (auto _ : state) b.sigs->resimulateAll();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(b.order.size()) *
                          kSigWords * 64);
}
BENCHMARK(BM_SigResimSimd)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_ConeTraversal(benchmark::State& state) {
  Aig g;
  cbq::util::Random rng(23);
  const Lit f = buildRandomCone(g, rng, 16, static_cast<int>(state.range(0)));
  const Lit roots[] = {f};
  for (auto _ : state) benchmark::DoNotOptimize(g.coneAnds(roots));
}
BENCHMARK(BM_ConeTraversal)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
