// Persistent sweep-session tests: context-shared sweeps must agree with
// fresh-context sweeps across successive calls, the pair cache must be
// dropped (or correctly remapped) when the manager identity changes, the
// context's interrupt must reach every poll site (sweeper, both DC
// phases, the quantifier's variable schedule) and leave sound results,
// the flat signature engine's incremental appendWord / refreshWord must
// be bit-for-bit identical to a full resimulation, and its forced-node
// resimulation must agree with an explicit rebuild. Tests of appends and
// of SAT-backed checks use supports past
// Signatures::kExhaustiveMaxInputs (test::wideXor), where the arena holds
// random words.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "cnf/aig_cnf.hpp"
#include "helpers.hpp"
#include "quant/quantifier.hpp"
#include "sat/solver.hpp"
#include "sweep/signatures.hpp"
#include "sweep/sweep_context.hpp"
#include "sweep/sweeper.hpp"
#include "synth/dc_simplify.hpp"
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

class SweepContextRandomized : public ::testing::TestWithParam<int> {};

TEST_P(SweepContextRandomized, PersistentAgreesWithFreshAcrossCalls) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Random rng(seed * 101 + 7);
  Aig g;
  SweepContext ctx;

  // Three successive sweeps over growing cones in one manager, all through
  // one persistent context; every result must match a fresh-context sweep
  // of the same roots semantically (truth table referee).
  std::vector<Lit> formulas;
  for (int call = 0; call < 3; ++call) {
    formulas.push_back(test::randomFormula(g, rng, 5, 40));
    const Lit f = formulas.back();
    const auto tt = test::truthTable(g, f, 5);

    SweepOptions opts;
    opts.seed = seed + static_cast<std::uint64_t>(call);
    const Lit roots[] = {f};
    const auto persistent = sweep(g, roots, opts, ctx);
    EXPECT_EQ(test::truthTable(g, persistent.roots[0], 5), tt)
        << "call " << call;

    SweepContext freshCtx;
    const auto fresh = sweep(g, roots, opts, freshCtx);
    EXPECT_EQ(test::truthTable(g, fresh.roots[0], 5), tt) << "call " << call;
    // Both pipelines must agree on the function; structure may differ
    // (the persistent context can merge through cached facts).
    EXPECT_EQ(test::truthTable(g, persistent.roots[0], 5),
              test::truthTable(g, fresh.roots[0], 5));
  }
  EXPECT_TRUE(ctx.boundTo(g));
}

TEST_P(SweepContextRandomized, RepeatSweepHitsPairCache) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Random rng(seed * 131 + 3);
  Aig g;
  // Two structurally different builds of equivalent functions so the SAT
  // layer has real work the first time around.
  const Lit a = g.pi(0);
  const Lit b = g.pi(1);
  const Lit c = g.pi(2);
  const Lit noise = test::randomFormula(g, rng, 3, 25);
  const Lit f1 = g.mkOr(g.mkAnd(a, b), g.mkAnd(a, c));
  const Lit f2 = g.mkAnd(a, g.mkOr(b, c));
  // The third root widens the support past the exhaustive bound.
  const Lit roots[] = {g.mkXor(f1, noise), g.mkXor(f2, noise),
                       test::wideXor(g, 6, kWide)};

  SweepContext ctx;
  SweepOptions opts;
  const auto first = sweep(g, roots, opts, ctx);
  const auto lookupsAfterFirst = ctx.counters().lookups;

  // Same roots again: everything provable was recorded, so the second
  // call must consult the cache and issue no more SAT checks than before.
  const auto second = sweep(g, roots, opts, ctx);
  EXPECT_GT(ctx.counters().lookups, lookupsAfterFirst);
  EXPECT_LE(second.stats.satChecks, first.stats.satChecks);
  if (first.stats.satMerges > 0) {
    EXPECT_GT(ctx.counters().hitsProven + ctx.counters().hitsRefuted, 0u);
  }
  EXPECT_EQ(test::truthTable(g, first.roots[0], 3 + 3),
            test::truthTable(g, second.roots[0], 3 + 3));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepContextRandomized,
                         ::testing::Range(0, 8));

TEST(SweepContext, RebindDropsCacheOnManagerIdentityChange) {
  Aig g;
  const Lit a = g.pi(0);
  const Lit b = g.pi(1);
  const Lit f1 = g.mkOr(g.mkAnd(a, b), g.mkAnd(a, !b));  // = a
  SweepContext ctx;
  ctx.bind(g);
  ctx.recordProven(f1, a);
  EXPECT_EQ(ctx.lookupPair(f1, a), SweepContext::PairFact::Proven);
  const std::uint64_t uidBefore = g.uid();

  // Compaction idiom: transfer the live cone into a fresh manager and
  // move it over the old one. The object address is unchanged but the
  // identity is new — bind() must detect it and drop the cache.
  Aig fresh;
  const Lit roots[] = {f1};
  fresh.transferFrom(g, roots);
  g = std::move(fresh);
  EXPECT_NE(g.uid(), uidBefore);
  EXPECT_FALSE(ctx.boundTo(g));

  const auto rebinds = ctx.counters().rebinds;
  EXPECT_TRUE(ctx.bind(g));
  EXPECT_EQ(ctx.counters().rebinds, rebinds + 1);
  // The old fact must be gone — its NodeIds mean something else now.
  EXPECT_EQ(ctx.lookupPair(f1, a), SweepContext::PairFact::Unknown);
}

TEST(SweepContext, RebindRemappedCarriesFactsAcrossCompaction) {
  Aig g;
  util::Random rng(99);
  const Lit f = test::randomFormula(g, rng, 4, 30);
  const Lit p = g.pi(0);
  SweepContext ctx;
  ctx.bind(g);
  ctx.recordProven(f, p);          // survives: both cones stay live
  const Lit scratch = g.mkAnd(g.pi(7), g.pi(8));
  ctx.recordRefuted(scratch, p);   // dies: scratch is not transferred

  Aig fresh;
  std::vector<std::pair<aig::NodeId, Lit>> xfer;
  const Lit roots[] = {f, p};
  const auto moved = fresh.transferFrom(g, roots, xfer);
  g = std::move(fresh);
  ctx.rebindRemapped(g, xfer);

  EXPECT_TRUE(ctx.boundTo(g));
  EXPECT_EQ(ctx.lookupPair(moved[0], moved[1]),
            SweepContext::PairFact::Proven);
  EXPECT_GE(ctx.counters().remaps, 1u);
}

TEST(SweepContext, SweepAfterCompactionStaysSound) {
  // End-to-end: sweep, compact (move-assign), sweep again with the same
  // context — the second sweep must rebind and stay semantically correct.
  bool anyRebind = false;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Random rng(seed * 17);
    Aig g;
    SweepContext ctx;
    Lit f = test::randomFormula(g, rng, 5, 50);
    {
      const Lit roots[] = {f};
      f = sweep(g, roots, {}, ctx).roots[0];
    }
    const auto tt = test::truthTable(g, f, 5);

    Aig fresh;
    const Lit live[] = {f};
    f = fresh.transferFrom(g, live).front();
    g = std::move(fresh);

    const Lit roots2[] = {f};
    const auto swept = sweep(g, roots2, {}, ctx);
    EXPECT_EQ(test::truthTable(g, swept.roots[0], 5), tt) << seed;
    // A rebind only happens when both sweeps saw non-empty cones (a
    // sweep of a constant/PI root returns before binding).
    anyRebind = anyRebind || ctx.counters().rebinds >= 1;
  }
  EXPECT_TRUE(anyRebind);
}

/// Installs on `ctx` an interrupt that counts its polls in `polls` and
/// fires — and stays fired — once more than `fireAfter` polls were made.
/// The solver polls the same callback, so every poll site of the run
/// (per compare point, per DC query, per variable, per SAT solve) sees
/// one shared count.
void interruptAfter(SweepContext& ctx, int& polls, int fireAfter) {
  polls = 0;
  ctx.setInterrupt([&polls, fireAfter] { return ++polls > fireAfter; });
}

constexpr int kNever = std::numeric_limits<int>::max();

TEST(SweepContextInterrupt, SweepStopsEarlyAndStaysSound) {
  // Cofactor pair: many equivalent nodes, and one simulation word over
  // 8 variables also proposes false candidates for SAT to refute. The
  // third root widens the support past the exhaustive bound.
  util::Random rng(73);
  Aig g;
  const Lit f = test::randomFormula(g, rng, 8, 100);
  const Lit a = g.cofactor(f, 7, false);
  const Lit b = g.cofactor(f, 7, true);
  const auto ttA = test::truthTable(g, a, 8);
  const auto ttB = test::truthTable(g, b, 8);
  const Lit roots[] = {a, b, test::wideXor(g, 8, kWide)};
  SweepOptions opts;
  opts.numWords = 1;  // every merge goes through a polled SAT check

  int polls = 0;
  SweepContext full;
  interruptAfter(full, polls, kNever);
  const auto baseline = sweep(g, roots, opts, full);
  const int totalPolls = polls;
  ASSERT_GT(baseline.stats.satChecks, 0u);

  for (int n = 0; n < totalPolls; ++n) {
    SweepContext ctx;
    interruptAfter(ctx, polls, n);
    const auto r = sweep(g, roots, opts, ctx);
    EXPECT_EQ(test::truthTable(g, r.roots[0], 8), ttA) << "n=" << n;
    EXPECT_EQ(test::truthTable(g, r.roots[1], 8), ttB) << "n=" << n;
    EXPECT_LE(r.stats.satChecks, baseline.stats.satChecks) << "n=" << n;
    // The compare-point poll stops the rounds: at most one more solver
    // poll can see the fired interrupt before the sweeper does.
    EXPECT_LE(polls, n + 2) << "n=" << n;
    // The first poll precedes the first SAT check.
    if (n == 0) {
      EXPECT_EQ(r.stats.satChecks, 0u);
    }
  }
}

TEST(SweepContextInterrupt, DcSimplifyKeepsItsPostcondition) {
  // A counter pre-image's cofactor pair: with enable = 0 the state must
  // already be K, with enable = 1 the incremented state must be K. Over
  // kWide state bits (past the exhaustive bound) phase A issues care-set
  // queries and phase B commits ODC rewrites after SAT checks, so
  // interrupting at every poll position covers both phases.
  constexpr int kBits = kWide;
  constexpr unsigned kTarget = 0x2b2b;
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
  auto equalsTarget = [&](const std::vector<Lit>& x) {
    Lit eq = aig::kTrue;
    for (std::size_t i = 0; i < x.size(); ++i)
      eq = g.mkAnd(eq, ((kTarget >> i) & 1) != 0 ? x[i] : !x[i]);
    return eq;
  };
  const Lit fRef = equalsTarget(s);
  const Lit fTgt = equalsTarget(next);
  const auto expect = test::truthTable(g, g.mkOr(fRef, fTgt), kBits);

  int polls = 0;
  SweepContext full;
  interruptAfter(full, polls, kNever);
  const auto baseline = synth::dcSimplify(g, fRef, fTgt, {}, full);
  const int totalPolls = polls;
  ASSERT_GT(baseline.stats.odcReplacements, 0u);
  ASSERT_GT(baseline.stats.satChecks, 0u);

  for (int n = 0; n < totalPolls; ++n) {
    SweepContext ctx;
    interruptAfter(ctx, polls, n);
    const auto r = synth::dcSimplify(g, fRef, fTgt, {}, ctx);
    EXPECT_EQ(test::truthTable(g, g.mkOr(fRef, r.target), kBits), expect)
        << "n=" << n;
    // Both phases poll before every query: at most one more solver poll
    // can see the fired interrupt before a phase site does.
    EXPECT_LE(polls, n + 2) << "n=" << n;
    if (n == 0) {
      EXPECT_EQ(r.stats.satChecks, 0u);
    }
  }
}

/// Truth table of ∃elim . f over variables 0..numVars-1, by enumeration.
std::vector<bool> existsTable(const Aig& g, Lit f,
                              const std::vector<aig::VarId>& elim,
                              int numVars) {
  const auto tt = test::truthTable(g, f, numVars);
  std::size_t elimMask = 0;
  for (const aig::VarId v : elim) elimMask |= std::size_t{1} << v;
  std::vector<bool> out(tt.size(), false);
  for (std::size_t m = 0; m < tt.size(); ++m) {
    if (!tt[m]) continue;
    // Every assignment that differs from m only on `elim` sees f true.
    for (std::size_t k = 0; k < tt.size(); ++k)
      if ((k & ~elimMask) == (m & ~elimMask)) out[k] = true;
  }
  return out;
}

TEST(SweepContextInterrupt, QuantifyAllReportsUnprocessedVarsAsResidual) {
  util::Random rng(87);
  Aig g;
  const Lit f = test::randomFormula(g, rng, 5, 50);
  ASSERT_EQ(g.supportVars(f).size(), 5u);
  const std::vector<aig::VarId> vars = {0, 1, 2, 3};
  quant::QuantOptions opts;
  opts.growthLimit = 1e9;  // no growth aborts: residual means interrupted

  int polls = 0;
  {
    SweepContext ctx;
    interruptAfter(ctx, polls, kNever);
    quant::Quantifier q(g, opts, ctx);
    const auto r = q.quantifyAll(f, vars);
    ASSERT_TRUE(r.residual.empty());
  }
  const int totalPolls = polls;

  bool sawPartial = false;
  for (int n = 0; n < totalPolls; ++n) {
    SweepContext ctx;
    interruptAfter(ctx, polls, n);
    quant::Quantifier q(g, opts, ctx);
    const auto r = q.quantifyAll(f, vars);
    std::vector<aig::VarId> eliminated;
    for (const aig::VarId v : vars)
      if (!std::binary_search(r.residual.begin(), r.residual.end(), v))
        eliminated.push_back(v);
    EXPECT_EQ(test::truthTable(g, r.f, 5), existsTable(g, f, eliminated, 5))
        << "n=" << n;
    EXPECT_EQ(q.stats().count("quant.interrupts"),
              r.residual.empty() ? 0 : 1)
        << "n=" << n;
    if (n == 0) {
      // The schedule polls before the first variable.
      EXPECT_EQ(r.f, f);
      EXPECT_EQ(r.residual, vars);
    }
    sawPartial = sawPartial ||
                 (!r.residual.empty() && r.residual.size() < vars.size());
  }
  EXPECT_TRUE(sawPartial);
}

TEST(Signatures, IncrementalAppendEqualsFullResimulation) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Random rng(seed * 23 + 5);
    Aig g;
    const Lit f = test::randomFormula(g, rng, 6, 60);
    const Lit roots[] = {f, test::wideXor(g, 6, kWide)};
    const auto order = g.coneAnds(roots);
    const auto support = g.supportVars(roots);

    sweep::Signatures sigs(g, order, support, rng, 2, 2 + 6);
    ASSERT_FALSE(sigs.exhaustive());

    // Append a few counterexample words (arbitrary bit patterns).
    for (int round = 0; round < 4; ++round) {
      std::vector<std::uint64_t> cexBits(support.size());
      for (auto& w : cexBits) w = rng.next64() & 0xff;
      ASSERT_TRUE(sigs.appendWord(cexBits, 8, rng));
    }

    // Snapshot the incrementally built signatures, then recompute every
    // column from the stored PI words — must match bit for bit.
    std::vector<std::vector<std::uint64_t>> before;
    for (const aig::NodeId n : order)
      before.emplace_back(sigs.of(n).begin(), sigs.of(n).end());
    sigs.resimulateAll();
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto now = sigs.of(order[i]);
      ASSERT_EQ(before[i].size(), now.size());
      for (std::size_t w = 0; w < now.size(); ++w)
        EXPECT_EQ(before[i][w], now[w]) << "node " << order[i] << " word "
                                        << w << " seed " << seed;
    }
  }
}

TEST(Signatures, AppendStopsAtCapacity) {
  Aig g;
  const Lit f = g.mkAnd(g.pi(0), g.pi(1));
  const Lit roots[] = {f, test::wideXor(g, 2, kWide)};
  const auto order = g.coneAnds(roots);
  const auto support = g.supportVars(roots);
  util::Random rng(5);
  sweep::Signatures sigs(g, order, support, rng, 1, 2);
  ASSERT_FALSE(sigs.exhaustive());
  EXPECT_EQ(sigs.words(), 1u);
  std::vector<std::uint64_t> cex(support.size(), 1);
  EXPECT_TRUE(sigs.appendWord(cex, 1, rng));
  EXPECT_EQ(sigs.words(), 2u);
  EXPECT_FALSE(sigs.appendWord(cex, 1, rng));  // at capacity: refused
  EXPECT_EQ(sigs.words(), 2u);
}

/// Value of support PI `v` on bit `bit` of word `w` of the stored patterns.
bool patternBit(const sweep::Signatures& sigs, const Aig& g, aig::VarId v,
                std::size_t w, unsigned bit) {
  return ((sigs.of(g.piNodeOf(v))[w] >> bit) & 1) != 0;
}

TEST(Signatures, ForcingChangesAgreesWithForcedRebuild) {
  // Referee: rebuild the root with the node replaced by the constant and
  // evaluate both roots on every stored pattern where the care literal
  // (a random formula, both phases) is 1. Six inputs give an exhaustive
  // arena, kWide a random one.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const int vars = seed % 2 == 0 ? 6 : kWide;
    util::Random rng(seed * 31 + 9);
    Aig g;
    const Lit f = test::randomFormula(g, rng, 6, 50);
    const Lit c = test::randomFormula(g, rng, 6, 20);
    const Lit roots[] = {f};
    const Lit both[] = {f, c, test::wideXor(g, 0, vars)};
    const auto order = g.coneAnds(roots);
    const auto support = g.supportVars(both);
    if (order.empty()) continue;
    sweep::Signatures sigs(g, g.coneAnds(both), support, rng, 2, 2);
    ASSERT_EQ(sigs.exhaustive(), vars == 6);

    for (const Lit care : {c, !c}) {
      for (const aig::NodeId n : order) {
        for (const bool value : {false, true}) {
          aig::NodeMap forced;
          forced.set(n, value ? aig::kTrue : aig::kFalse);
          const Lit rebuilt = g.rebuildWithNodeMap(roots, forced).front();
          bool expected = false;
          for (std::size_t w = 0; w < sigs.words() && !expected; ++w) {
            for (unsigned bit = 0; bit < 64 && !expected; ++bit) {
              std::unordered_map<aig::VarId, bool> a;
              for (const aig::VarId v : support)
                a.emplace(v, patternBit(sigs, g, v, w, bit));
              expected = g.evaluate(care, a) &&
                         g.evaluate(f, a) != g.evaluate(rebuilt, a);
            }
          }
          EXPECT_EQ(sigs.forcingChanges(n, value, f.node(), care), expected)
              << "seed " << seed << " node " << n << " value " << value;
        }
      }
    }
  }
}

TEST(Signatures, RefreshAndRelayoutKeepThePatterns) {
  util::Random rng(41);
  Aig g;
  const Lit f = test::randomFormula(g, rng, 6, 50);
  const Lit roots[] = {f, test::wideXor(g, 6, kWide)};
  const auto support = g.supportVars(roots);
  sweep::Signatures sigs(g, g.coneAnds(roots), support, rng, 1, 3);
  ASSERT_FALSE(sigs.exhaustive());

  // Grow a partly filled column one pattern at a time; each refresh must
  // match a full resimulation bit for bit.
  std::vector<std::uint64_t> cex(support.size(), 0);
  ASSERT_TRUE(sigs.appendWord(cex, 0, rng));
  for (int k = 0; k < 5; ++k) {
    for (auto& c : cex) c |= (rng.next64() & 1) << k;
    sigs.refreshWord(1, cex, k + 1);
    const std::uint64_t keep = (std::uint64_t{1} << (k + 1)) - 1;
    for (std::size_t i = 0; i < support.size(); ++i)
      EXPECT_EQ(sigs.of(g.piNodeOf(support[i]))[1] & keep, cex[i] & keep);
    const std::vector<std::uint64_t> incremental(sigs.of(f.node()).begin(),
                                                 sigs.of(f.node()).end());
    sigs.resimulateAll();
    EXPECT_EQ(std::vector<std::uint64_t>(sigs.of(f.node()).begin(),
                                         sigs.of(f.node()).end()),
              incremental);
  }

  // Relayout onto a cone with nodes created after construction: the PI
  // rows survive, and the new nodes are addressable and simulated.
  std::vector<std::vector<std::uint64_t>> piRows;
  for (const aig::VarId v : support)
    piRows.emplace_back(sigs.of(g.piNodeOf(v)).begin(),
                        sigs.of(g.piNodeOf(v)).end());
  const Lit h = g.mkXor(f, g.mkAnd(g.pi(support.front()), !f));
  const Lit hRoots[] = {h};
  ASSERT_FALSE(sigs.inCone(h.node()));
  sigs.relayout(g.coneAnds(hRoots));
  ASSERT_TRUE(sigs.inCone(h.node()));
  for (std::size_t i = 0; i < support.size(); ++i) {
    const auto row = sigs.of(g.piNodeOf(support[i]));
    EXPECT_EQ(std::vector<std::uint64_t>(row.begin(), row.end()), piRows[i]);
  }
  for (std::size_t w = 0; w < sigs.words(); ++w) {
    for (unsigned bit = 0; bit < 64; bit += 7) {
      std::unordered_map<aig::VarId, bool> a;
      for (const aig::VarId v : support)
        a.emplace(v, patternBit(sigs, g, v, w, bit));
      const bool simulated =
          (((sigs.of(h.node())[w] >> bit) & 1) != 0) != h.negated();
      EXPECT_EQ(simulated, g.evaluate(h, a)) << "word " << w << " bit " << bit;
    }
  }
}

TEST(SolverFocus, FocusedQueriesStaySoundInSharedDatabase) {
  // Two disjoint cones in one solver; focusing on one must not change
  // the answers for queries inside it, and a later focus on the other
  // cone must still decide that cone's variables (heap rebuild).
  Aig g;
  const Lit x = g.pi(0);
  const Lit y = g.pi(1);
  const Lit coneA = g.mkXor(x, y);
  const Lit u = g.pi(2);
  const Lit v = g.pi(3);
  const Lit coneB = g.mkAnd(u, v);

  sat::Solver solver;
  cnf::AigCnf cnf(g, solver);

  const Lit aRoots[] = {coneA};
  cnf.focusOn(aRoots);
  EXPECT_EQ(cnf::checkSat(cnf, coneA), cnf::Verdict::Holds);
  EXPECT_EQ(cnf::checkEquiv(cnf, coneA, coneA), cnf::Verdict::Holds);
  EXPECT_EQ(cnf::checkConstant(cnf, coneA, false), cnf::Verdict::Fails);

  const Lit bRoots[] = {coneB};
  cnf.focusOn(bRoots);
  EXPECT_EQ(cnf::checkSat(cnf, coneB), cnf::Verdict::Holds);
  EXPECT_TRUE(cnf.modelOf(2));
  EXPECT_TRUE(cnf.modelOf(3));
  EXPECT_EQ(cnf::checkImplies(cnf, coneB, u), cnf::Verdict::Holds);
  EXPECT_EQ(cnf::checkImplies(cnf, u, coneB), cnf::Verdict::Fails);

  // Unfocus: a full-assignment query over both cones still works.
  solver.unfocusDecisions();
  EXPECT_EQ(cnf::checkSat(cnf, g.mkAnd(coneA, coneB)), cnf::Verdict::Holds);
}

}  // namespace
}  // namespace cbq
