// T2 — ablation of the merge phase (§2.1).
//
// Runs the paper's engine with the merge-phase layers switched on one at
// a time:
//   strash      — cofactors share only via structural hashing,
//   +bdd-sweep  — size-bounded BDD sweeping merges equivalent nodes,
//   +sat-sweep  — incremental SAT checks finish the remaining points.
// The optimization phase is off throughout, isolating §2.1.
//
// Expected shape: the peak state-set cone shrinks monotonically as layers
// are added; the SAT layer matters most where cofactors are similar but
// structurally different (gray, lfsr); verdicts never change.

#include <cstdio>
#include <iostream>

#include "circuits/suite.hpp"
#include "mc/engines.hpp"
#include "util/table.hpp"

namespace {

struct Config {
  const char* name;
  bool merge;
  bool bdd;
  bool sat;
};

}  // namespace

int main() {
  using namespace cbq;
  std::printf("T2: merge-phase ablation (optimization phase disabled)\n");
  std::printf("(peak reached-set cone in AND nodes / time[ms])\n\n");

  const Config configs[] = {
      {"strash", false, false, false},
      {"bdd-only", true, true, false},
      {"sat-only", true, false, true},
      {"bdd+sat", true, true, true},
  };

  util::Table table({"instance", "iters", "strash", "bdd-only", "sat-only",
                     "bdd+sat", "sat-checks", "verdict-stable"});

  for (auto& inst : circuits::standardSuite()) {
    if (inst.expected != mc::Verdict::Safe) continue;  // fixpoint workloads
    std::vector<std::string> cells;
    int iters = 0;
    mc::Verdict first = mc::Verdict::Unknown;
    bool stable = true;
    std::int64_t satChecks = 0;
    for (const auto& cfg : configs) {
      mc::CircuitQuantReachOptions opts;
      opts.quant.mergePhase = cfg.merge;
      opts.quant.optPhase = false;
      opts.quant.sweepOpts.useBdd = cfg.bdd;
      opts.quant.sweepOpts.useSat = cfg.sat;
      mc::CircuitQuantReach engine(opts);
      const auto res = engine.check(inst.net, portfolio::Budget(20.0));
      iters = res.steps;
      if (first == mc::Verdict::Unknown) first = res.verdict;
      stable = stable && (res.verdict == first);
      // Report the SAT-only column's check count (in bdd+sat the BDD
      // layer absorbs most points first, hiding the SAT layer's work).
      if (cfg.sat && !cfg.bdd)
        satChecks = res.stats.count("merge.sat_checks");
      cells.push_back(
          util::Table::num(res.stats.gauge("reach.max_reached_cone"), 0) +
          " / " + util::Table::num(res.seconds * 1e3, 1));
    }
    table.addRow({inst.net.name, std::to_string(iters), cells[0], cells[1],
                  cells[2], cells[3], std::to_string(satChecks),
                  stable ? "yes" : "NO"});
  }
  table.print(std::cout);
  return 0;
}
