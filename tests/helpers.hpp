#pragma once
// Shared test utilities: random AIG generation and exhaustive equivalence
// checking against truth tables (the independent referee for everything
// the SAT/BDD/sweeping machinery claims).

#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "util/random.hpp"
#include "util/var_table.hpp"

namespace cbq::test {

/// Builds a random AIG over `numVars` PIs (varIds 0..numVars-1) by
/// stacking `numOps` random AND/OR/XOR/MUX operations; returns the root.
inline aig::Lit randomFormula(aig::Aig& g, util::Random& rng, int numVars,
                              int numOps) {
  std::vector<aig::Lit> pool;
  pool.push_back(aig::kTrue);
  for (int v = 0; v < numVars; ++v)
    pool.push_back(g.pi(static_cast<aig::VarId>(v)));

  auto pick = [&]() {
    aig::Lit l = pool[rng.below(pool.size())];
    return rng.flip() ? !l : l;
  };
  for (int i = 0; i < numOps; ++i) {
    aig::Lit r;
    switch (rng.below(4)) {
      case 0:
        r = g.mkAnd(pick(), pick());
        break;
      case 1:
        r = g.mkOr(pick(), pick());
        break;
      case 2:
        r = g.mkXor(pick(), pick());
        break;
      default:
        r = g.mkMux(pick(), pick(), pick());
        break;
    }
    pool.push_back(r);
  }
  return pool.back();
}

/// Truth table of `root` over varIds 0..numVars-1 (numVars <= 20): entry
/// m is the value under v := bit v of m, other PIs false. Evaluated 64
/// minterms per Aig::simulate call.
inline std::vector<bool> truthTable(const aig::Aig& g, aig::Lit root,
                                    int numVars) {
  const std::uint64_t patterns = std::uint64_t{1} << numVars;
  std::vector<bool> tt;
  tt.reserve(patterns);
  const aig::Lit roots[] = {root};
  util::VarTable<std::uint64_t> words;
  for (std::uint64_t base = 0; base < patterns; base += 64) {
    for (int v = 0; v < numVars; ++v) {
      std::uint64_t w = 0;
      for (unsigned b = 0; b < 64; ++b)
        w |= (((base + b) >> v) & 1) << b;
      words.set(static_cast<aig::VarId>(v), w);
    }
    const std::uint64_t out = g.simulate(roots, words).front();
    for (unsigned b = 0; b < 64 && base + b < patterns; ++b)
      tt.push_back(((out >> b) & 1) != 0);
  }
  return tt;
}

/// XOR of PIs first..first+count-1: a root that widens the support of a
/// cone it is swept with. Past Signatures::kExhaustiveMaxInputs inputs
/// the arena holds random words, which keeps a test on the SAT path.
inline aig::Lit wideXor(aig::Aig& g, aig::VarId first, int count) {
  aig::Lit x = aig::kFalse;
  for (int i = 0; i < count; ++i)
    x = g.mkXor(x, g.pi(first + static_cast<aig::VarId>(i)));
  return x;
}

/// The XOR of wideXor(g, first, count) built in the opposite order: a
/// structurally distinct equivalent, so a sweep of both always has a
/// compare point to prove.
inline aig::Lit wideXorReversed(aig::Aig& g, aig::VarId first, int count) {
  aig::Lit x = aig::kFalse;
  for (int i = count - 1; i >= 0; --i)
    x = g.mkXor(x, g.pi(first + static_cast<aig::VarId>(i)));
  return x;
}

/// Exhaustive functional equality of two literals over the first
/// `numVars` variables.
inline bool equivalentExhaustive(const aig::Aig& g, aig::Lit a, aig::Lit b,
                                 int numVars) {
  return truthTable(g, a, numVars) == truthTable(g, b, numVars);
}

}  // namespace cbq::test
