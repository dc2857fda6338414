// T1 — engine comparison on the standard suite.
//
// Reconstructs the paper's headline evaluation (§5: "efficacy of the
// methodology on hard-to-verify circuits and properties"): the
// circuit-quantification engine against the BDD baselines, BMC,
// k-induction, all-SAT pre-image and the §4 hybrid, on every suite
// instance. Reports verdict, iterations/depth and wall-clock time.
//
// Expected shape: every engine agrees with the ground truth; the
// unbounded engines prove SAFE where BMC cannot; cbq-reach tracks
// bdd-bwd in iteration count (same fixpoint, different representation).

#include <cstdio>
#include <iostream>

#include "circuits/suite.hpp"
#include "mc/engines.hpp"
#include "util/table.hpp"

int main() {
  using namespace cbq;
  std::printf("T1: engine comparison on the standard suite\n");
  std::printf("(verdict / iterations-or-depth / time[ms]; X = wrong, "
              "? = unknown)\n\n");

  auto engines = mc::makeAllEngines();
  std::vector<std::string> header{"instance", "truth"};
  for (const auto& e : engines) header.push_back(e->name());
  util::Table table(header);

  int disagreements = 0;
  int bogusTraces = 0;
  for (auto& inst : circuits::standardSuite()) {
    std::vector<std::string> row{inst.net.name,
                                 mc::toString(inst.expected)};
    for (auto& engine : engines) {
      const auto res = engine->check(inst.net, portfolio::Budget(60.0));
      std::string cell;
      if (res.verdict == mc::Verdict::Unknown) {
        cell = "?";
      } else {
        cell.assign(1, res.verdict == mc::Verdict::Safe ? 'S' : 'U');
        if (res.verdict != inst.expected) {
          cell += "  X";
          ++disagreements;
        }
      }
      if (res.cex && !mc::replayHitsBad(inst.net, *res.cex)) {
        cell += " BOGUS";
        ++bogusTraces;
      }
      // Appended piecewise: `"/" + std::to_string(...)` trips g++-12's
      // -Wrestrict false positive.
      cell += '/';
      cell += std::to_string(res.steps);
      cell += '/';
      cell += util::Table::num(res.seconds * 1e3, 1);
      row.push_back(cell);
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);
  std::printf("\nwrong verdicts: %d, bogus counterexamples: %d\n",
              disagreements, bogusTraces);
  return (disagreements || bogusTraces) ? 1 : 0;
}
