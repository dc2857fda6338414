// T4 — partial quantification (§4): the growth-bound trade-off.
//
// Quantifies all primary inputs out of a one-step pre-image formula of
// the arbiter family while sweeping the per-variable growth bound.
// A tight bound aborts blow-up-prone variables (they become *residual*
// decision variables for a SAT engine); a loose bound eliminates
// everything at the cost of a larger circuit.
//
// Expected shape: %eliminated grows monotonically with the bound; the
// result size grows with it; even a moderate bound eliminates most
// variables — the point of §4 is that the expensive ones are few.

#include <cstdio>
#include <iostream>
#include <unordered_map>

#include "circuits/families.hpp"
#include "quant/quantifier.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace cbq;

/// One-step pre-image formula Bad(δ(s,i)) over (s, i) in a fresh manager.
aig::Lit preImageFormula(const mc::Network& net, aig::Aig& mgr) {
  std::vector<aig::Lit> roots(net.next.begin(), net.next.end());
  roots.push_back(net.bad);
  const auto moved = mgr.transferFrom(net.aig, roots);
  std::vector<aig::VarSub> subst;
  for (std::size_t i = 0; i < net.stateVars.size(); ++i)
    subst.emplace_back(net.stateVars[i], moved[i]);
  return mgr.compose(moved.back(), subst);
}

}  // namespace

int main() {
  std::printf("T4: partial quantification — growth-bound sweep\n");
  std::printf("(arbiter(n) one-step pre-image; quantifying all n request "
              "inputs)\n\n");

  util::Table table({"instance", "inputs", "growth-bound", "eliminated",
                     "residual", "result-cone", "time[ms]"});

  for (const int width : {4, 6, 8}) {
    const auto net = circuits::makeArbiter(width, true);
    for (const double bound : {0.5, 1.0, 2.0, 4.0, 1e9}) {
      aig::Aig mgr;
      const aig::Lit f = preImageFormula(net, mgr);
      quant::QuantOptions opts;
      opts.growthLimit = bound;
      opts.growthSlack = 0;
      opts.abortRetries = 0;
      sweep::SweepContext ctx;
      quant::Quantifier q(mgr, opts, ctx);
      util::Timer timer;
      const auto r = q.quantifyAll(f, net.inputVars);
      const double ms = timer.milliseconds();
      const std::size_t eliminated =
          net.inputVars.size() - r.residual.size();
      table.addRow({net.name, std::to_string(net.numInputs()),
                    bound > 1e8 ? "inf" : util::Table::num(bound, 1),
                    std::to_string(eliminated) + "/" +
                        std::to_string(net.numInputs()),
                    std::to_string(r.residual.size()),
                    std::to_string(mgr.coneSize(r.f)),
                    util::Table::num(ms, 1)});
    }
  }
  table.print(std::cout);
  return 0;
}
