#pragma once
// The individual preprocessing passes. Each pass is a pure function
// Network -> Network that preserves the invariant-checking verdict in both
// directions (Safe iff Safe, Unsafe iff Unsafe, with trace correspondence
// through the returned Transform). The Pipeline (pipeline.hpp) sequences
// them; tests drive them one at a time.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "mc/network.hpp"
#include "prep/trace_lift.hpp"
#include "obs/metrics.hpp"

namespace cbq::prep {

/// Outcome of one pass. When `changed` is false the pass was an identity:
/// `net` is default-constructed (empty — the caller keeps its input, so a
/// no-op costs no network copy) and `transform` is null.
struct PassResult {
  mc::Network net;
  std::shared_ptr<const Transform> transform;
  bool changed = false;
};

/// Cone-of-influence reduction: keeps only the latches in the transitive
/// support closure of the bad cone (seed: state variables supporting
/// `bad`; closure: supports of the kept next-state functions) and only the
/// inputs feeding a kept cone. Everything else never influences the
/// violation condition at any step and is dropped.
PassResult coiReduction(const mc::Network& net,
                        obs::Metrics* stats = nullptr);

/// Constant/stuck-at latch sweep: a latch whose next-state function is the
/// constant equal to its reset value, or whose next-state is its own
/// current value (a self-loop holds the reset forever), is constant in
/// every reachable state. Its constant is substituted into every remaining
/// cone; substitution can expose further constant latches, so the sweep
/// iterates to closure.
PassResult constLatchSweep(const mc::Network& net,
                           obs::Metrics* stats = nullptr);

/// Structural simplification: runs the sweeper (BDD + SAT equivalence
/// merging) over {next functions, bad} and compacts into a fresh manager,
/// re-applying the construction rewrite rules across the live set. Every
/// root function is preserved exactly. `satBudget` bounds each SAT
/// equivalence query; `maxAnds` skips the pass on cones too large to sweep
/// in a preprocessing step (0 = no bound). The result is kept only when
/// the AND count shrinks by at least `minShrink` (fraction): a
/// noise-level shrink still perturbs the cone structure the backward
/// engines cofactor through, which measurably hurts more than two saved
/// nodes help (counter10: 73 -> 71 ANDs, 1.9x slower fixpoint).
/// `interrupt` (optional) is installed on the pass's sweep session, so
/// the sweeper polls it per compare point and its solver inside each SAT
/// check; when it fires the sweep stops with whatever merges are already
/// proven.
PassResult structuralSimplify(const mc::Network& net,
                              std::int64_t satBudget = 200,
                              std::size_t maxAnds = 100000,
                              double minShrink = 0.05,
                              std::function<bool()> interrupt = {},
                              obs::Metrics* stats = nullptr);

/// Latch correspondence: greatest-fixpoint partition refinement. Latches
/// start classed by reset value; each round substitutes every latch by its
/// class representative in all next-state functions and splits classes
/// whose members' substituted next-state literals differ structurally
/// (structural hashing makes this a sound, cheap equivalence proof). At
/// the fixpoint, same-class latches are equal in every reachable state by
/// induction; non-representatives are substituted away and dropped.
///
/// Refinement can take up to numLatches rounds and each round composes
/// every next-state cone into the same growing manager (the van Eijk
/// worst case is quadratic), so the pass is gated: skipped when the
/// next-state cones (the part the compose rounds rewrite) exceed
/// `maxAnds` ANDs (0 = no bound), abandoned — soundly, as a no-op — when the
/// working manager outgrows `growthLimit` × the starting node count or
/// when `interrupt` fires between rounds.
/// A word-parallel simulation prefilter runs before the compose loop:
/// each latch variable is driven by its CURRENT class representative's
/// random word, the next-state cones are simulated in topological order,
/// and classes whose members' next-state words differ are split. Simulation under a class-consistent assignment can never
/// distinguish latches the structural fixpoint keeps together (equal
/// composed literals evaluate equally), so the prefilter only
/// anticipates splits the compose loop would make anyway — the final
/// partition is unchanged, but many refinement rounds collapse into
/// cheap simulation rounds instead of manager-growing compose rounds.
PassResult latchCorrespondence(const mc::Network& net,
                               std::size_t maxAnds = 100000,
                               std::size_t growthLimit = 8,
                               std::function<bool()> interrupt = {},
                               obs::Metrics* stats = nullptr);

}  // namespace cbq::prep
