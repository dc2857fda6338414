// T5 — combining circuit quantification with SAT-based methods (§4).
//
// Two halves:
//  (a) all-SAT pre-image (Ganai-style circuit cofactoring) with and
//      without circuit quantification as a preprocessing step: the hybrid
//      engine should need far fewer enumeration steps because most input
//      variables were already eliminated;
//  (b) input quantification as preprocessing for BMC: decision variables
//      in the bad cone drop, time should not grow.
//
// Expected shape: hybrid enumerations << pure all-SAT enumerations on the
// input-heavy families; inputs-in-bad goes to zero on arbiter-like
// properties; verdicts identical everywhere.

#include <cstdio>
#include <iostream>

#include "circuits/suite.hpp"
#include "mc/engines.hpp"
#include "util/table.hpp"

int main() {
  using namespace cbq;
  std::printf("T5a: all-SAT pre-image enumeration — pure vs hybrid (§4)\n\n");
  {
    util::Table table({"instance", "verdict", "allsat-enums",
                       "hybrid-enums", "hybrid-residual-vars",
                       "allsat[ms]", "hybrid[ms]"});
    for (const char* family : {"arbiter", "ring", "queue", "peterson"}) {
      for (const int width : {4, 6}) {
        if ((std::string(family) == "peterson") && width != 4) continue;
        auto inst = circuits::makeInstance(family, width, true);
        mc::AllSatPreimageReach pure;
        mc::HybridReach hybrid;
        const auto a = pure.check(inst.net, portfolio::Budget(60.0));
        const auto h = hybrid.check(inst.net, portfolio::Budget(60.0));
        table.addRow(
            {inst.net.name, mc::toString(a.verdict),
             std::to_string(a.stats.count("allsat.enumerations")),
             std::to_string(h.stats.count("allsat.enumerations")),
             std::to_string(h.stats.count("hybrid.residual_vars")),
             util::Table::num(a.seconds * 1e3, 1),
             util::Table::num(h.seconds * 1e3, 1)});
      }
    }
    table.print(std::cout);
  }

  std::printf("\nT5b: input quantification as BMC preprocessing (§4)\n\n");
  {
    util::Table table({"instance", "inputs-in-bad", "after-quant",
                       "bmc-before[ms]", "bmc-after[ms]", "verdict-stable"});
    for (auto& inst : circuits::standardSuite()) {
      const auto pre = mc::preprocessQuantifyInputs(inst.net);
      mc::BmcOptions opts;
      opts.maxDepth = 40;
      mc::Bmc bmc(opts);
      const auto before = bmc.check(inst.net, portfolio::Budget(60.0));
      const auto after = bmc.check(pre.net, portfolio::Budget(60.0));
      table.addRow({inst.net.name, std::to_string(pre.inputsBefore),
                    std::to_string(pre.inputsAfter),
                    util::Table::num(before.seconds * 1e3, 1),
                    util::Table::num(after.seconds * 1e3, 1),
                    before.verdict == after.verdict ? "yes" : "NO"});
    }
    table.print(std::cout);
  }
  return 0;
}
