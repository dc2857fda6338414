// F1 — scaling series: non-canonical AIG state sets vs canonical BDDs.
//
// The paper's motivating claim (§1): BDD canonicity causes memory
// explosion that circuit-based representations avoid (at the price of
// SAT work per operation). This figure sweeps the width of three
// families and plots, per width, the peak state-set representation size
// and the runtime of the paper's engine vs the backward BDD baseline.
//
// Expected shape: on counter-like datapaths the BDD stays tiny (they are
// BDD-friendly); on the gray pair (XOR-rich relational invariant) the
// BDD representation grows much faster than the swept AIG cone, and the
// crossover where cbq-reach wins appears as the width grows.

#include <cstdio>
#include <iostream>

#include "circuits/suite.hpp"
#include "mc/engines.hpp"
#include "util/table.hpp"

int main() {
  using namespace cbq;
  std::printf("F1: width scaling — AIG state sets (cbq-reach) vs BDDs "
              "(bdd-bwd)\n");
  std::printf("(safe variants; size = peak state-set representation: AND "
              "nodes vs BDD nodes)\n\n");

  struct Series {
    const char* family;
    std::vector<int> widths;
  };
  const Series series[] = {
      {"counter", {3, 5, 7, 9, 11}},
      {"evencount", {4, 5, 6, 7, 8}},
      {"gray", {3, 4, 5, 6, 7}},
      {"ring", {4, 8, 12, 16, 20}},
      {"mult", {4, 8, 10, 12, 14}},
  };

  for (const auto& s : series) {
    util::Table table({"width", "cbq-size", "bdd-size", "cbq[ms]",
                       "bdd[ms]", "cbq-iters", "bdd-iters"});
    for (const int w : s.widths) {
      auto inst = circuits::makeInstance(s.family, w, true);
      mc::CircuitQuantReach aigEngine;
      mc::BddReachOptions bddOpts;
      bddOpts.nodeLimit = 1'000'000;
      mc::BddBackwardReach bddEngine(bddOpts);
      const auto a = aigEngine.check(inst.net, portfolio::Budget(20.0));
      const auto b = bddEngine.check(inst.net, portfolio::Budget(20.0));
      table.addRow({std::to_string(w),
                    util::Table::num(a.stats.gauge("reach.max_reached_cone"),
                                     0),
                    util::Table::num(b.stats.gauge("bdd.max_frontier_size"),
                                     0),
                    util::Table::num(a.seconds * 1e3, 1),
                    util::Table::num(b.seconds * 1e3, 1),
                    std::to_string(a.steps), std::to_string(b.steps)});
    }
    std::printf("family: %s\n", s.family);
    table.print(std::cout);
    std::printf("\n");
  }
  return 0;
}
