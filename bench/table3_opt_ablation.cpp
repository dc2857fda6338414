// T3 — ablation of the optimization phase (§2.2).
//
// With the merge phase fixed on, toggles the synthesis-based
// optimizations of the cofactor disjunction:
//   none     — just F0 ∨ F1 after merging,
//   input-dc — each cofactor simplified under the other's onset as an
//              input don't-care set (constants + merges mod complement),
//   +odc     — plus the observability-DC check fRef ∨ F0' ≡ fRef ∨ F0.
//
// Expected shape: input-DC gives the bulk of the reduction (the paper
// "dedicates most of its effort" to cofactor-vs-cofactor optimization);
// ODC adds a tail on the control-dominated families; verdicts stable.

#include <cstdio>
#include <iostream>

#include "circuits/suite.hpp"
#include "mc/engines.hpp"
#include "util/table.hpp"

namespace {

struct Config {
  const char* name;
  bool opt;
  bool odc;
};

}  // namespace

int main() {
  using namespace cbq;
  std::printf("T3: optimization-phase ablation (merge phase enabled)\n");
  std::printf("(peak reached-set cone in AND nodes / time[ms])\n\n");

  const Config configs[] = {
      {"none", false, false},
      {"input-dc", true, false},
      {"+odc", true, true},
  };

  util::Table table({"instance", "iters", "none", "input-dc", "+odc",
                     "dc-repl", "odc-repl", "verdict-stable"});

  for (auto& inst : circuits::standardSuite()) {
    if (inst.expected != mc::Verdict::Safe) continue;
    std::vector<std::string> cells;
    int iters = 0;
    mc::Verdict first = mc::Verdict::Unknown;
    bool stable = true;
    std::int64_t dcRepl = 0;
    std::int64_t odcRepl = 0;
    for (const auto& cfg : configs) {
      mc::CircuitQuantReachOptions opts;
      opts.quant.mergePhase = true;
      opts.quant.optPhase = cfg.opt;
      opts.quant.dcOpts.useOdc = cfg.odc;
      mc::CircuitQuantReach engine(opts);
      const auto res = engine.check(inst.net, portfolio::Budget(20.0));
      iters = res.steps;
      if (first == mc::Verdict::Unknown) first = res.verdict;
      stable = stable && (res.verdict == first);
      if (cfg.opt) {
        dcRepl = res.stats.count("opt.const_repl") +
                 res.stats.count("opt.merge_repl");
      }
      if (cfg.odc) odcRepl = res.stats.count("opt.odc_repl");
      cells.push_back(
          util::Table::num(res.stats.gauge("reach.max_reached_cone"), 0) +
          " / " + util::Table::num(res.seconds * 1e3, 1));
    }
    table.addRow({inst.net.name, std::to_string(iters), cells[0], cells[1],
                  cells[2], std::to_string(dcRepl), std::to_string(odcRepl),
                  stable ? "yes" : "NO"});
  }
  table.print(std::cout);
  return 0;
}
