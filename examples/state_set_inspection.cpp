// Inside the quantifier: watching the merge and optimization phases work.
//
//   $ ./state_set_inspection [out.dot]
//
// Builds a one-step pre-image formula of the even-stepping counter —
// exactly the kind of state set the paper's traversal manipulates —
// and eliminates the input variable three ways:
//   1. Shannon expansion with both §2 phases off (the quantifier still
//      rewrites the disjunction structurally),
//   2. the full §2 pipeline (merge + don't-care optimization),
//   3. the §3 substitution rule when the formula has definition shape.
// The pre-image has no definition conjunct for the input, so 1 and 2 take
// the cofactor path.
// Prints the resulting circuit sizes, and optionally dumps the optimized
// state set as Graphviz dot for inspection.

#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "aig/dot.hpp"
#include "circuits/families.hpp"
#include "quant/quantifier.hpp"

int main(int argc, char** argv) {
  using namespace cbq;

  const auto net = circuits::makeEvenCounter(6, /*safe=*/true);

  // Pre-image formula Bad(δ(s, i)) over state vars + the enable input.
  aig::Aig mgr;
  std::vector<aig::Lit> roots(net.next.begin(), net.next.end());
  roots.push_back(net.bad);
  const auto moved = mgr.transferFrom(net.aig, roots);
  std::vector<aig::VarSub> subst;
  for (std::size_t i = 0; i < net.stateVars.size(); ++i)
    subst.emplace_back(net.stateVars[i], moved[i]);
  const aig::Lit pre = mgr.compose(moved.back(), subst);
  const aig::VarId enable = net.inputVars[0];

  std::printf("pre-image formula: %zu AND nodes, %zu support vars\n",
              mgr.coneSize(pre), mgr.supportVars(pre).size());

  // 1. Shannon expansion only.
  quant::QuantOptions plain;
  plain.mergePhase = false;
  plain.optPhase = false;
  sweep::SweepContext session;  // one sweep session for both pipelines
  quant::Quantifier qPlain(mgr, plain, session);
  const aig::Lit rPlain = qPlain.quantifyVarForced(pre, enable);
  std::printf("shannon expansion only:   %4zu AND nodes\n",
              mgr.coneSize(rPlain));

  // 2. Full pipeline.
  quant::Quantifier qFull(mgr, {}, session);
  const aig::Lit rFull = qFull.quantifyVarForced(pre, enable);
  std::printf("merge + dc optimization:  %4zu AND nodes "
              "(%lld merges, %lld dc replacements)\n",
              mgr.coneSize(rFull),
              static_cast<long long>(
                  qFull.stats().count("merge.bdd_merges") +
                  qFull.stats().count("merge.sat_merges")),
              static_cast<long long>(
                  qFull.stats().count("opt.const_repl") +
                  qFull.stats().count("opt.merge_repl") +
                  qFull.stats().count("opt.odc_repl")));

  // 3. Substitution shape: ∃v.((v ↔ g) ∧ R).
  {
    aig::Aig g2;
    const aig::Lit v = g2.pi(0);
    const aig::Lit def = g2.mkXor(g2.pi(1), g2.pi(2));
    const aig::Lit f =
        g2.mkAnd(g2.mkXnor(v, def), g2.mkOr(v, g2.pi(3)));
    sweep::SweepContext session2;
    quant::Quantifier q3(g2, {}, session2);
    const auto sub = q3.quantifyBySubstitution(f, 0);
    std::printf("substitution rule (§3):   %4zu AND nodes "
                "(in-lined, no cofactoring)\n",
                sub ? g2.coneSize(*sub) : 0);
  }

  if (argc > 1) {
    std::ofstream out(argv[1]);
    const aig::Lit dumpRoots[] = {rFull};
    aig::writeDot(mgr, dumpRoots, out, "optimized_state_set");
    std::printf("wrote %s (render with: dot -Tpdf %s -o out.pdf)\n",
                argv[1], argv[1]);
  }
  return 0;
}
