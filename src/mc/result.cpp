#include "mc/result.hpp"

#include <cstdint>
#include <vector>

#include "mc/network.hpp"
#include "util/var_table.hpp"

namespace cbq::mc {

bool replayHitsBad(const Network& net, const Trace& trace) {
  if (trace.inputs.empty()) return false;
  // One 64-way simulation of next ∪ {bad} per step, every lane carrying
  // the same pattern (bit 0 is read): the shared cone is walked once per
  // step instead of once per latch. Unassigned variables read as false.
  std::vector<aig::Lit> roots(net.next.begin(), net.next.end());
  roots.push_back(net.bad);
  std::vector<bool> state = net.init;  // per latch
  util::VarTable<std::uint64_t> words;

  for (std::size_t t = 0;; ++t) {
    words.clear();
    for (std::size_t i = 0; i < net.numLatches(); ++i)
      if (state[i]) words.set(net.stateVars[i], ~std::uint64_t{0});
    for (const aig::VarId v : net.inputVars) {
      const auto it = trace.inputs[t].find(v);
      if (it != trace.inputs[t].end() && it->second)
        words.set(v, ~std::uint64_t{0});
    }
    const auto out = net.aig.simulate(roots, words);
    if (t + 1 == trace.inputs.size()) return (out.back() & 1) != 0;

    // Step the latches.
    for (std::size_t i = 0; i < net.numLatches(); ++i)
      state[i] = (out[i] & 1) != 0;
  }
}

}  // namespace cbq::mc
