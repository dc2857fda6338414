// Verifying a hardware counter with the paper's engine.
//
//   $ ./counter_verification [width]
//
// Builds the safe counter (the all-ones value is skipped by the wrap
// logic) and its buggy twin (plain wrap-around), runs the circuit-based
// backward reachability engine on both, and replays the counterexample
// through pure simulation — the independent referee.

#include <cstdio>
#include <cstdlib>

#include "circuits/families.hpp"
#include "mc/engines.hpp"

namespace {

void report(const cbq::mc::Network& net, const cbq::mc::CheckResult& res) {
  std::printf("%-18s -> %-8s after %d iteration(s), %.3fs\n",
              net.name.c_str(), cbq::mc::toString(res.verdict), res.steps,
              res.seconds);
  if (res.cex) {
    std::printf("  counterexample of %zu step(s); replay says: %s\n",
                res.cex->length(),
                cbq::mc::replayHitsBad(net, *res.cex) ? "bad state reached"
                                                      : "TRACE IS BOGUS");
    // Print the enable input per step (the counter's only input).
    std::printf("  inputs:");
    for (const auto& step : res.cex->inputs) {
      const bool en = step.begin() != step.end() && step.begin()->second;
      std::printf(" %d", en ? 1 : 0);
    }
    std::printf("\n");
  }
  std::printf("  state-set work: peak reached-set cone = %.0f AND nodes, "
              "%lld fixpoint checks\n",
              res.stats.gauge("reach.max_reached_cone"),
              static_cast<long long>(res.stats.count("reach.fixpoint_checks")));
}

}  // namespace

int main(int argc, char** argv) {
  const int width = argc > 1 ? std::atoi(argv[1]) : 4;
  if (width < 2 || width > 16) {
    std::fprintf(stderr, "usage: %s [width 2..16]\n", argv[0]);
    return 1;
  }

  cbq::mc::CircuitQuantReach engine;

  std::printf("== safe counter: wraps at 2^%d-2, all-ones unreachable ==\n",
              width);
  const auto safeNet = cbq::circuits::makeCounter(width, /*safe=*/true);
  report(safeNet, engine.check(safeNet, cbq::portfolio::Budget(60.0)));

  std::printf("\n== buggy counter: plain wrap, all-ones reachable ==\n");
  const auto buggyNet = cbq::circuits::makeCounter(width, /*safe=*/false);
  report(buggyNet, engine.check(buggyNet, cbq::portfolio::Budget(60.0)));
  return 0;
}
