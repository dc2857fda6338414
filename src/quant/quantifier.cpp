#include "quant/quantifier.hpp"

#include <algorithm>
#include <bit>

#include "obs/tracer.hpp"
#include "sweep/sweep_context.hpp"
#include "util/timer.hpp"
#include "util/var_table.hpp"

namespace cbq::quant {

using aig::Lit;
using aig::NodeId;
using aig::VarId;

std::optional<Lit> Quantifier::quantifyVar(Lit f, VarId v) {
  return quantifyVarImpl(f, v, /*enforceGrowth=*/true);
}

Lit Quantifier::quantifyVarForced(Lit f, VarId v) {
  return *quantifyVarImpl(f, v, /*enforceGrowth=*/false);
}

namespace {

/// Collects the conjuncts of f's top-level AND tree (f itself when it is
/// not a positive AND literal).
void collectConjuncts(const aig::Aig& g, Lit f, std::vector<Lit>& out) {
  if (!f.negated() && g.isAnd(f.node())) {
    collectConjuncts(g, g.fanin0(f.node()), out);
    collectConjuncts(g, g.fanin1(f.node()), out);
  } else {
    out.push_back(f);
  }
}

/// Matches a PAIR of conjuncts encoding p XNOR q. An XNOR is a positive
/// AND node, so the top-level conjunct split tears it into its two
/// halves ¬(p ∧ ¬q) and ¬(¬p ∧ q); together they assert p ↔ q.
bool matchXnorPair(const aig::Aig& g, Lit ci, Lit cj, Lit& p, Lit& q) {
  if (!ci.negated() || !cj.negated()) return false;
  if (!g.isAnd(ci.node()) || !g.isAnd(cj.node())) return false;
  const Lit a0 = g.fanin0(ci.node());
  const Lit a1 = g.fanin1(ci.node());
  const Lit b0 = g.fanin0(cj.node());
  const Lit b1 = g.fanin1(cj.node());
  // The two products must be over the same literals in opposite phases.
  if ((a0 == !b0 && a1 == !b1) || (a0 == !b1 && a1 == !b0)) {
    // ci ∧ cj = ¬(a0 ∧ a1) ∧ ¬(¬a0 ∧ ¬a1) = a0 XNOR ¬a1.
    p = a0;
    q = !a1;
    return true;
  }
  return false;
}

}  // namespace

std::optional<Lit> Quantifier::quantifyBySubstitution(Lit f, VarId v) {
  if (f.isConstant() || !aig_->hasPi(v)) return std::nullopt;
  const Lit vLit(aig_->piNodeOf(v), false);
  std::vector<Lit> conjuncts;
  collectConjuncts(*aig_, f, conjuncts);

  Lit def;
  bool found = false;
  std::size_t usedI = 0;
  std::size_t usedJ = 0;  // == usedI for single-conjunct matches

  // Single-conjunct forms first: the literal itself pins the variable.
  for (std::size_t i = 0; i < conjuncts.size() && !found; ++i) {
    if (conjuncts[i] == vLit) {
      def = aig::kTrue;  // ∃v.(v ∧ R) = R[v := 1]
      found = true;
      usedI = usedJ = i;
    } else if (conjuncts[i] == !vLit) {
      def = aig::kFalse;
      found = true;
      usedI = usedJ = i;
    }
  }

  // Definition via an XNOR split across two conjuncts: v ↔ g.
  for (std::size_t i = 0; i < conjuncts.size() && !found; ++i) {
    for (std::size_t j = i + 1; j < conjuncts.size() && !found; ++j) {
      Lit p;
      Lit q;
      if (!matchXnorPair(*aig_, conjuncts[i], conjuncts[j], p, q)) continue;
      Lit candidate;
      if (p.positive() == vLit) {
        candidate = q ^ p.negated();  // XNOR(¬v, q) = XNOR(v, ¬q)
      } else if (q.positive() == vLit) {
        candidate = p ^ q.negated();
      } else {
        continue;
      }
      if (aig_->dependsOn(candidate, v)) continue;  // not a definition
      def = candidate;
      found = true;
      usedI = i;
      usedJ = j;
    }
  }
  if (!found) return std::nullopt;

  // Rebuild the remaining conjunction and in-line the definition. The
  // defining conjuncts themselves become true under v := def and are
  // dropped; v may still occur in the rest — substitution handles it.
  std::vector<Lit> rest;
  rest.reserve(conjuncts.size());
  for (std::size_t k = 0; k < conjuncts.size(); ++k)
    if (k != usedI && k != usedJ) rest.push_back(conjuncts[k]);
  const Lit restF = aig_->mkAndAll(rest);
  stats_.add("quant.vars_substituted");
  return aig_->compose(restF, {{v, def}});
}

std::optional<Lit> Quantifier::quantifyVarImpl(Lit f, VarId v,
                                               bool enforceGrowth) {
  CBQ_OBS_SPAN("quant", "eliminate-var");
  const util::Timer varTimer;
  struct ObserveOnExit {
    obs::Metrics& stats;
    const util::Timer& timer;
    ~ObserveOnExit() { stats.observe("quant.var_seconds", timer.seconds()); }
  } observe{stats_, varTimer};
  stats_.add("quant.vars_attempted");
  if (f.isConstant() || !aig_->dependsOn(f, v)) {
    stats_.add("quant.vars_trivial");
    return f;
  }
  if (opts_.useSubstitution) {
    if (auto sub = quantifyBySubstitution(f, v)) return sub;
  }
  const std::size_t before = aig_->coneSize(f);
  stats_.add("quant.cone_before_total", static_cast<std::int64_t>(before));

  // Cofactors (the manager's hashing provides the paper's "semi-canonicity"
  // merge layer as the cofactors are rebuilt).
  Lit f0 = aig_->cofactor(f, v, false);
  Lit f1 = aig_->cofactor(f, v, true);
  if (f0 == f1) return f0;
  if (f0 == !f1) return aig::kTrue;

  // ----- merge phase (§2.1) ------------------------------------------------
  if (opts_.mergePhase && !f0.isConstant() && !f1.isConstant()) {
    const Lit pair[] = {f0, f1};
    const auto swept = sweep::sweep(*aig_, pair, opts_.sweepOpts, *ctx_);
    f0 = swept.roots[0];
    f1 = swept.roots[1];
    stats_.add("merge.bdd_merges",
               static_cast<std::int64_t>(swept.stats.bddMerges));
    stats_.add("merge.sat_merges",
               static_cast<std::int64_t>(swept.stats.satMerges));
    stats_.add("merge.const_merges",
               static_cast<std::int64_t>(swept.stats.constMerges));
    stats_.add("merge.sat_checks",
               static_cast<std::int64_t>(swept.stats.satChecks));
    stats_.add("merge.sat_refuted",
               static_cast<std::int64_t>(swept.stats.satRefuted));
    stats_.add("merge.sat_unknown",
               static_cast<std::int64_t>(swept.stats.satUnknown));
    stats_.add("merge.cache_hits_proven",
               static_cast<std::int64_t>(swept.stats.cacheHitsProven));
    stats_.add("merge.cache_hits_refuted",
               static_cast<std::int64_t>(swept.stats.cacheHitsRefuted));
    if (f0 == f1) return f0;
    if (f0 == !f1) return aig::kTrue;
  }

  // ----- optimization phase (§2.2) ----------------------------------------
  if (opts_.optPhase && !f0.isConstant() && !f1.isConstant()) {
    // Use f1's onset as DCs for f0, then the simplified f0's onset for f1.
    const auto r0 = synth::dcSimplify(*aig_, /*fRef=*/f1, /*fTgt=*/f0,
                                      opts_.dcOpts, *ctx_);
    f0 = r0.target;
    const auto r1 = synth::dcSimplify(*aig_, /*fRef=*/f0, /*fTgt=*/f1,
                                      opts_.dcOpts, *ctx_);
    f1 = r1.target;
    for (const auto* r : {&r0, &r1}) {
      stats_.add("opt.const_repl",
                 static_cast<std::int64_t>(r->stats.constReplacements));
      stats_.add("opt.merge_repl",
                 static_cast<std::int64_t>(r->stats.mergeReplacements));
      stats_.add("opt.odc_repl",
                 static_cast<std::int64_t>(r->stats.odcReplacements));
      stats_.add("opt.sat_checks",
                 static_cast<std::int64_t>(r->stats.satChecks));
      stats_.add("opt.sat_refuted",
                 static_cast<std::int64_t>(r->stats.satRefuted));
      stats_.add("opt.sat_unknown",
                 static_cast<std::int64_t>(r->stats.satUnknown));
      stats_.add("opt.odc_sim_refuted",
                 static_cast<std::int64_t>(r->stats.odcSimRefuted));
    }
  }
  Lit result = aig_->mkOr(f0, f1);
  if (opts_.rewriteResult) {
    const Lit roots[] = {result};
    result = synth::rewrite(*aig_, roots).front();
  }

  const std::size_t after = aig_->coneSize(result);
  stats_.add("quant.cone_after_total", static_cast<std::int64_t>(after));
  stats_.high("quant.max_cone", static_cast<double>(after));

  if (enforceGrowth) {
    const double bound = opts_.growthLimit * static_cast<double>(before) +
                         static_cast<double>(opts_.growthSlack);
    if (static_cast<double>(after) > bound) {
      stats_.add("quant.vars_aborted");
      return std::nullopt;
    }
  }
  stats_.add("quant.vars_eliminated");
  return result;
}

std::vector<std::size_t> Quantifier::dependentCounts(
    Lit f, std::span<const VarId> vars) const {
  // Bottom-up support bitsets restricted to the candidate variables, then
  // per-variable population counts. Words scale with |vars|; rows are
  // allocated compactly per cone node in one flat arena.
  const Lit roots[] = {f};
  const auto order = aig_->coneAnds(roots);
  const std::size_t words = (vars.size() + 63) / 64;
  util::VarTable<std::uint32_t> varSlot;
  for (std::size_t i = 0; i < vars.size(); ++i)
    varSlot.set(vars[i], static_cast<std::uint32_t>(i));

  constexpr std::uint32_t kNoRow = 0xffffffffu;
  std::vector<std::uint32_t> rowOf(aig_->numNodes(), kNoRow);
  std::vector<std::uint64_t> bits;  // row-major arena, `words` per row
  bits.reserve((order.size() + vars.size() + 1) * words);
  auto ensureRow = [&](NodeId n) -> std::uint32_t {
    if (rowOf[n] == kNoRow) {
      rowOf[n] = static_cast<std::uint32_t>(bits.size() / words);
      bits.resize(bits.size() + words, 0);
      if (aig_->isPi(n) && varSlot.contains(aig_->piVar(n))) {
        const std::uint32_t slot = varSlot.at(aig_->piVar(n));
        bits[rowOf[n] * words + slot / 64] |= std::uint64_t{1} << (slot % 64);
      }
    }
    return rowOf[n];
  };

  std::vector<std::size_t> counts(vars.size(), 0);
  for (const NodeId n : order) {
    // Build this node's mask from its fanins (already processed). Take
    // row indices first: ensureRow may grow the arena.
    const std::uint32_t r0 = ensureRow(aig_->fanin0(n).node());
    const std::uint32_t r1 = ensureRow(aig_->fanin1(n).node());
    const std::uint32_t rn = ensureRow(n);
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t combined =
          bits[r0 * words + w] | bits[r1 * words + w];
      bits[rn * words + w] = combined;
      std::uint64_t rest = combined;
      while (rest != 0) {
        ++counts[w * 64 + static_cast<std::size_t>(std::countr_zero(rest))];
        rest &= rest - 1;
      }
    }
  }
  return counts;
}

Quantifier::Result Quantifier::quantifyAll(Lit f,
                                           std::span<const VarId> vars) {
  Result out;
  out.f = f;

  // Work only on variables actually in the support.
  std::vector<VarId> remaining;
  {
    const auto support = aig_->supportVars(out.f);
    for (const VarId v : vars) {
      if (std::binary_search(support.begin(), support.end(), v))
        remaining.push_back(v);
    }
  }

  int retriesLeft = opts_.abortRetries;
  std::vector<VarId> aborted;
  while (!remaining.empty()) {
    if (ctx_->interrupted()) {
      // Interrupted: everything unprocessed becomes residual.
      aborted.insert(aborted.end(), remaining.begin(), remaining.end());
      stats_.add("quant.interrupts");
      break;
    }
    // Cheapest-first scheduling.
    const auto counts = dependentCounts(out.f, remaining);
    std::size_t best = 0;
    for (std::size_t i = 1; i < remaining.size(); ++i)
      if (counts[i] < counts[best]) best = i;
    const VarId v = remaining[best];
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best));

    if (auto r = quantifyVar(out.f, v)) {
      out.f = *r;
      if (out.f.isConstant()) break;
      // Support may have shrunk (DC optimizations drop variables).
      const auto support = aig_->supportVars(out.f);
      std::erase_if(remaining, [&](VarId x) {
        return !std::binary_search(support.begin(), support.end(), x);
      });
      std::erase_if(aborted, [&](VarId x) {
        return !std::binary_search(support.begin(), support.end(), x);
      });
    } else {
      aborted.push_back(v);
    }

    if (remaining.empty() && !aborted.empty() && retriesLeft > 0 &&
        !out.f.isConstant()) {
      // The formula shrank since those aborts; give them another chance.
      remaining.swap(aborted);
      --retriesLeft;
    }
  }

  if (out.f.isConstant()) aborted.clear();  // ∃x.c = c for every variable
  out.residual = std::move(aborted);
  std::sort(out.residual.begin(), out.residual.end());
  stats_.add("quant.residual_vars",
             static_cast<std::int64_t>(out.residual.size()));
  return out;
}

}  // namespace cbq::quant
