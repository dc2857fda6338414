// Quickstart: build a formula as an AIG, existentially quantify variables
// with the circuit-based pipeline, and inspect what each phase achieved.
//
//   $ ./quickstart
//
// This is the 60-second tour of the library's core API: aig::Aig for
// formula construction, quant::Quantifier for ∃-elimination, and the
// statistics that expose the merge/optimization phases of the paper.

#include <cstdio>

#include "aig/aig.hpp"
#include "quant/quantifier.hpp"

int main() {
  using namespace cbq;

  // --- 1. build a formula --------------------------------------------------
  // f(x, a, b, c) = (x & (a ^ b)) | (!x & (a ^ c)) — a mux on x.
  aig::Aig g;
  const aig::Lit x = g.pi(0);
  const aig::Lit a = g.pi(1);
  const aig::Lit b = g.pi(2);
  const aig::Lit c = g.pi(3);
  const aig::Lit f = g.mkMux(x, g.mkXor(a, b), g.mkXor(a, c));
  std::printf("f has %zu AND nodes over %zu variables\n", g.coneSize(f),
              g.supportVars(f).size());

  // --- 2. quantify one variable --------------------------------------------
  // ∃x.f = (a^b) | (a^c). The quantifier computes the two cofactors,
  // merges shared sub-circuits (§2.1 of the paper) and simplifies each
  // cofactor under the other's don't-cares (§2.2). Every SAT check of
  // both phases runs on one persistent sweep session.
  sweep::SweepContext session;
  quant::Quantifier q(g, {}, session);
  const aig::Lit exF = q.quantifyVarForced(f, 0);
  std::printf("after exists(x): %zu AND nodes, support:", g.coneSize(exF));
  for (const aig::VarId v : g.supportVars(exF)) std::printf(" %u", v);
  std::printf("\n");

  // --- 3. quantify everything ----------------------------------------------
  // ∃x,a,b,c . f is TRUE iff f is satisfiable.
  const aig::VarId all[] = {0, 1, 2, 3};
  const auto result = q.quantifyAll(f, all);
  std::printf("exists(all vars): %s (%zu residual vars)\n",
              result.f.isTrue() ? "true — f is satisfiable"
                                : "false — f is unsatisfiable",
              result.residual.size());

  // --- 4. what did the engine do? -------------------------------------------
  std::printf("\npipeline statistics:\n");
  for (const auto& [key, value] : q.stats().counters())
    std::printf("  %-28s %lld\n", key.c_str(),
                static_cast<long long>(value));
  return 0;
}
