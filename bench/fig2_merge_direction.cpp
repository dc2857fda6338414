// F2 — forward vs backward merge processing (§2.1).
//
// The paper: "Backward processing is generally better in case of high
// merge probability (similar cofactors), as few checks on the output
// region can quickly find equivalence and merge points, and stop
// recursion. Forward processing is more similar to BDD sweeping."
//
// We control cofactor similarity directly: f is a disjunction of m
// random sub-functions, of which a fraction p contains the quantified
// variable x. Small p ⇒ the two cofactors are nearly identical ⇒ high
// merge probability. For each p the two processing directions sweep the
// cofactor pair; we report SAT checks issued, checks skipped because
// merging detached the region (backward's early-stop), and time.
//
// Expected shape: at small p backward issues fewer checks (root-level
// merges prune everything below); as p grows the two directions converge
// and forward's input-up learning wins slightly.

#include <cstdio>
#include <iostream>

#include "helpers_bench.hpp"
#include "sweep/sweeper.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace cbq;
  std::printf("F2: forward vs backward merge processing vs cofactor "
              "similarity\n\n");

  util::Table table({"p(x in clause)", "cofactor-similarity", "fwd-checks",
                     "bwd-checks", "bwd-skipped", "fwd[ms]", "bwd[ms]",
                     "merged-size-fwd", "merged-size-bwd"});

  util::Random rng(2025);
  for (const double p : {0.05, 0.1, 0.2, 0.4, 0.6, 0.8}) {
    // Averages over a few samples per similarity point.
    double fwdChecks = 0;
    double bwdChecks = 0;
    double bwdSkipped = 0;
    double fwdMs = 0;
    double bwdMs = 0;
    double fwdSize = 0;
    double bwdSize = 0;
    double similarity = 0;
    const int samples = 3;
    for (int sample = 0; sample < samples; ++sample) {
      aig::Aig g;
      const aig::Lit f =
          bench::similarityFormula(g, rng, /*vars=*/8, /*clauses=*/24, p);
      const aig::Lit f0 = g.cofactor(f, 0, false);
      const aig::Lit f1 = g.cofactor(f, 0, true);
      similarity += bench::structuralSimilarity(g, f0, f1);

      for (const bool backward : {false, true}) {
        sweep::SweepOptions opts;
        opts.backward = backward;
        sweep::SweepContext ctx;  // fresh per call: each direction cold
        util::Timer timer;
        const aig::Lit roots[] = {f0, f1};
        const auto r = sweep::sweep(g, roots, opts, ctx);
        const double ms = timer.milliseconds();
        if (backward) {
          bwdChecks += static_cast<double>(r.stats.satChecks);
          bwdSkipped += static_cast<double>(r.stats.skippedUnreferenced);
          bwdMs += ms;
          bwdSize += static_cast<double>(r.stats.nodesAfter);
        } else {
          fwdChecks += static_cast<double>(r.stats.satChecks);
          fwdMs += ms;
          fwdSize += static_cast<double>(r.stats.nodesAfter);
        }
      }
    }
    const double inv = 1.0 / samples;
    table.addRow({util::Table::num(p, 2),
                  util::Table::num(similarity * inv, 2),
                  util::Table::num(fwdChecks * inv, 1),
                  util::Table::num(bwdChecks * inv, 1),
                  util::Table::num(bwdSkipped * inv, 1),
                  util::Table::num(fwdMs * inv, 2),
                  util::Table::num(bwdMs * inv, 2),
                  util::Table::num(fwdSize * inv, 0),
                  util::Table::num(bwdSize * inv, 0)});
  }
  table.print(std::cout);
  return 0;
}
