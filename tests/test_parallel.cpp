// Thread-count invariance tests: every parallel layer (thread pool,
// signature simulation, sweeper refinement, preprocessing passes, whole
// checks) must produce BIT-IDENTICAL results at any lane count — the
// determinism contract that makes --par-threads safe to flip on. Plus the
// streaming binary AIGER reader round-trip, including an instance larger
// than the reader's 64 KiB chunk by three orders of magnitude.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "circuits/io.hpp"
#include "circuits/suite.hpp"
#include "helpers.hpp"
#include "portfolio/runner.hpp"
#include "prep/pipeline.hpp"
#include "sweep/signatures.hpp"
#include "sweep/sweeper.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace cbq {
namespace {

using aig::Aig;
using aig::Lit;
using mc::Network;
using mc::Verdict;
using util::ThreadPool;

// ---------------------------------------------------------------- pool --

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10007);
  pool.parallelFor(hits.size(), 1, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  int lanes = -1;
  pool.parallelFor(100, 1, [&](std::size_t, std::size_t, int lane) {
    lanes = std::max(lanes, lane);
  });
  EXPECT_EQ(lanes, 0);
}

TEST(ThreadPool, NestedRegionFallsBackToSerial) {
  // The busy-guard keeps the thread budget global: a parallelFor issued
  // from inside a running region executes inline on the calling lane.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> outer(64);
  std::vector<std::atomic<int>> inner(64 * 8);
  pool.parallelFor(outer.size(), 1,
                   [&](std::size_t b, std::size_t e, int) {
                     for (std::size_t i = b; i < e; ++i) {
                       outer[i].fetch_add(1);
                       pool.parallelFor(
                           8, 1, [&](std::size_t ib, std::size_t ie, int) {
                             for (std::size_t j = ib; j < ie; ++j)
                               inner[i * 8 + j].fetch_add(1);
                           });
                     }
                   });
  for (const auto& h : outer) EXPECT_EQ(h.load(), 1);
  for (const auto& h : inner) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, BodyExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(1000, 1,
                       [&](std::size_t b, std::size_t, int) {
                         if (b >= 500) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<int> sum{0};
  pool.parallelFor(100, 1, [&](std::size_t b, std::size_t e, int) {
    sum.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(sum.load(), 100);
}

// ---------------------------------------------------------- signatures --

/// Signature words must be bit-identical serial vs any pool, and
/// resimulateAll must reproduce both the incremental state and the
/// column-major reference recomputation exactly.
TEST(ParallelSignatures, WordsIdenticalAtAnyLaneCount) {
  util::Random build(42);
  Aig g;
  const Lit root = test::randomFormula(g, build, 8, 400);
  const Lit roots[] = {root};
  const auto order = g.coneAnds(roots);
  const auto support = g.supportVars(roots);

  auto collect = [&](ThreadPool* pool) {
    util::Random rng(7);  // same seed -> same PI words everywhere
    sweep::Signatures sigs(g, order, support, rng, 4, 8, pool);
    const std::vector<std::uint64_t> cex(support.size(), 0xf0f0f0f0ull);
    EXPECT_TRUE(sigs.appendWord(cex, static_cast<int>(support.size()), rng));
    std::vector<std::uint64_t> words;
    for (const auto n : order)
      for (const auto w : sigs.of(n)) words.push_back(w);
    sigs.resimulateAll();
    std::vector<std::uint64_t> resim;
    for (const auto n : order)
      for (const auto w : sigs.of(n)) resim.push_back(w);
    EXPECT_EQ(words, resim);  // resimulation == incremental state
    sigs.resimulateAllReference();
    std::vector<std::uint64_t> ref;
    for (const auto n : order)
      for (const auto w : sigs.of(n)) ref.push_back(w);
    EXPECT_EQ(words, ref);  // node-major == column-major reference
    return words;
  };

  const auto serial = collect(nullptr);
  for (const int lanes : {1, 2, 8}) {
    ThreadPool pool(lanes);
    EXPECT_EQ(collect(&pool), serial) << "lanes=" << lanes;
  }
}

// ------------------------------------------------------------- sweeper --

TEST(ParallelSweep, MergesIdenticalAtAnyLaneCount) {
  for (int seed = 0; seed < 6; ++seed) {
    util::Random build(static_cast<std::uint64_t>(seed) * 97 + 11);
    Aig g;
    const Lit a = test::randomFormula(g, build, 6, 120);
    const Lit b = test::randomFormula(g, build, 6, 120);
    const auto ttA = test::truthTable(g, a, 6);
    const auto ttB = test::truthTable(g, b, 6);

    auto runSweep = [&](ThreadPool* pool) {
      sweep::SweepOptions opts;
      opts.pool = pool;
      const Lit roots[] = {a, b};
      sweep::SweepContext ctx;
      return sweep::sweep(g, roots, opts, ctx);
    };
    const auto serial = runSweep(nullptr);
    EXPECT_EQ(test::truthTable(g, serial.roots[0], 6), ttA);
    EXPECT_EQ(test::truthTable(g, serial.roots[1], 6), ttB);
    for (const int lanes : {2, 8}) {
      ThreadPool pool(lanes);
      const auto par = runSweep(&pool);
      // Bit-identical outcome: same rebuilt literals, same class
      // structure, same SAT effort — not merely equivalent functions.
      EXPECT_EQ(par.roots, serial.roots) << "lanes=" << lanes;
      EXPECT_EQ(par.stats.satChecks, serial.stats.satChecks);
      EXPECT_EQ(par.stats.satMerges, serial.stats.satMerges);
      EXPECT_EQ(par.stats.bddMerges, serial.stats.bddMerges);
      EXPECT_EQ(par.stats.nodesAfter, serial.stats.nodesAfter);
    }
  }
}

// ---------------------------------------------------------------- prep --

/// Random sequential network, same construction as test_random_models.
Network randomNetwork(util::Random& rng, int latches, int inputs) {
  mc::NetworkBuilder b("random");
  std::vector<Lit> state;
  for (int i = 0; i < latches; ++i) state.push_back(b.addLatch(rng.flip()));
  for (int i = 0; i < inputs; ++i) b.addInput();
  Aig& g = b.aig();
  const int vars = latches + inputs;
  for (int i = 0; i < latches; ++i)
    b.setNext(static_cast<std::size_t>(i),
              test::randomFormula(g, rng, vars, 8));
  const Lit raw = test::randomFormula(g, rng, vars, 6);
  b.setBad(g.mkAnd(raw, state[rng.below(static_cast<std::uint64_t>(
                       latches))] ^ rng.flip()));
  return b.finish();
}

std::string aagOf(const Network& net) {
  std::ostringstream os;
  circuits::writeAag(net, os);
  return os.str();
}

TEST(ParallelPrep, PipelineOutputIdenticalAtAnyLaneCount) {
  std::vector<Network> models;
  for (int seed = 0; seed < 4; ++seed) {
    util::Random rng(static_cast<std::uint64_t>(seed) * 131 + 5);
    models.push_back(randomNetwork(rng, 4, 2));
  }
  models.push_back(circuits::makeInstance("haystack", 4, true).net);
  models.push_back(circuits::makeInstance("giant", 40, true).net);
  models.push_back(circuits::makeInstance("giant", 40, false).net);

  for (const Network& net : models) {
    auto reduce = [&](ThreadPool* pool) {
      prep::PrepOptions opts;
      opts.pool = pool;
      const prep::PreparedProblem pp = prep::Pipeline(opts).run(net);
      return aagOf(pp.problem(net));
    };
    const std::string serial = reduce(nullptr);
    for (const int lanes : {1, 2, 8}) {
      ThreadPool pool(lanes);
      EXPECT_EQ(reduce(&pool), serial)
          << net.name << " lanes=" << lanes;
    }
  }
}

// ---------------------------------------------------------- end to end --

TEST(ParallelCheck, VerdictsIdenticalAtAnyLaneCount) {
  struct Spec {
    const char* family;
    int width;
    bool safe;
  };
  const Spec specs[] = {{"counter", 4, true}, {"counter", 4, false},
                        {"haystack", 4, true}, {"giant", 60, true},
                        {"giant", 60, false}};
  for (const Spec& spec : specs) {
    const auto inst =
        circuits::makeInstance(spec.family, spec.width, spec.safe);
    auto check = [&](int lanes) {
      portfolio::PortfolioOptions opts;
      opts.engines = {"cbq-reach"};
      opts.parThreads = lanes;
      return portfolio::PortfolioRunner(opts).run(inst.net).best.verdict;
    };
    const Verdict serial = check(1);
    EXPECT_EQ(serial, inst.expected) << spec.family << spec.width;
    EXPECT_EQ(check(2), serial) << spec.family << spec.width;
    EXPECT_EQ(check(8), serial) << spec.family << spec.width;
  }
}

// ---------------------------------------------------- streaming reader --

/// Binary write -> chunked read, refereed by evaluating bad and every
/// next-state function on random assignments (input/state variables
/// mapped positionally — the reader renumbers and its construction rules
/// may restructure the AIG, so only behaviour is comparable). Returns the
/// encoded size so callers can assert the stream crossed chunk bounds.
std::size_t binaryRoundTripBytes(const Network& net, std::uint64_t seed,
                                 int runs) {
  std::ostringstream os;
  circuits::writeAigBinary(net, os);
  const std::string bytes = os.str();
  std::istringstream in(bytes);
  const Network back = circuits::readAigBinary(in);
  EXPECT_EQ(back.numLatches(), net.numLatches());
  EXPECT_EQ(back.numInputs(), net.numInputs());
  util::Random rng(seed);
  for (int run = 0; run < runs; ++run) {
    std::unordered_map<aig::VarId, bool> a;
    std::unordered_map<aig::VarId, bool> b;
    for (std::size_t i = 0; i < net.inputVars.size(); ++i) {
      const bool bit = rng.flip();
      a.emplace(net.inputVars[i], bit);
      b.emplace(back.inputVars[i], bit);
    }
    for (std::size_t i = 0; i < net.stateVars.size(); ++i) {
      const bool bit = rng.flip();
      a.emplace(net.stateVars[i], bit);
      b.emplace(back.stateVars[i], bit);
    }
    EXPECT_EQ(net.aig.evaluate(net.bad, a), back.aig.evaluate(back.bad, b));
    for (std::size_t j = 0; j < net.next.size(); ++j)
      EXPECT_EQ(net.aig.evaluate(net.next[j], a),
                back.aig.evaluate(back.next[j], b))
          << "latch " << j;
  }
  return bytes.size();
}

TEST(StreamingReader, RoundTripsTheGeneratedFamilies) {
  std::uint64_t seed = 1000;
  for (const auto& inst : circuits::standardSuite()) {
    const std::size_t bytes = binaryRoundTripBytes(inst.net, ++seed, 4);
    EXPECT_GT(bytes, 0u) << inst.family;
  }
}

TEST(StreamingReader, RoundTripsAnInstanceLargerThanAnyChunk) {
  // A pure AND chain: each step hashes to a fresh node, the deltas stay
  // small, and the binary file comfortably exceeds 64 MiB — thousands of
  // refills of the reader's 64 KiB chunk.
  mc::NetworkBuilder b("huge");
  const Lit latch = b.addLatch(false);
  Aig& g = b.aig();
  constexpr int kInputs = 64;
  std::vector<Lit> pis;
  for (int i = 0; i < kInputs; ++i) pis.push_back(b.addInput());
  Lit acc = pis[0];
  constexpr std::size_t kAnds = 15'000'000;
  for (std::size_t i = 0; i < kAnds; ++i)
    acc = g.mkAnd(acc, pis[(i * 7 + 3) % kInputs] ^ ((i & 1) != 0));
  b.setNext(0, acc);
  b.setBad(g.mkAnd(latch, acc));
  const Network net = b.finish();
  ASSERT_GE(net.aig.numAnds(), kAnds);

  const std::size_t bytes = binaryRoundTripBytes(net, 9001, 2);
  EXPECT_GT(bytes, 64u * 1024u * 1024u);
}

}  // namespace
}  // namespace cbq
