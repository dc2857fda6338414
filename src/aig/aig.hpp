#pragma once
// And-Inverter Graph (AIG) manager.
//
// This is the non-canonical state-set representation at the heart of the
// paper (Kuehlmann et al., "Circuit-based Boolean Reasoning"). Nodes are
// two-input ANDs with complemented edges; the manager provides
//  * structural hashing ("semi-canonicity" in the paper's terms),
//  * one- and two-level simplification rules applied at construction,
//  * cofactoring and composition (quantification by substitution),
//  * cone traversal, structural support, and cross-manager transfer,
//  * 64-way parallel bit-level simulation.
//
// Primary inputs carry a persistent `varId` chosen by the caller, so the
// same variable keeps its identity across managers; this is what makes
// moving state-set cones between managers (for compaction) and composing
// next-state functions into state sets straightforward.
//
// Every hot path is arena-style dense: the structural hash is a flat
// open-addressed table (strash.hpp), cone rebuilds reuse one
// epoch-stamped memo owned by the manager (scratch.hpp), and per-variable
// lookups go through flat VarId-indexed slot tables (util/var_table.hpp).

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aig/lit.hpp"
#include "aig/scratch.hpp"
#include "aig/strash.hpp"
#include "util/var_table.hpp"

namespace cbq::audit {
struct Access;
}

namespace cbq::aig {

/// Identifier of an external variable (primary input), stable across
/// managers. Model checking assigns state variables and circuit inputs
/// distinct varIds.
using VarId = std::uint32_t;

/// One (variable := literal) substitution entry for compose().
using VarSub = std::pair<VarId, Lit>;

/// One AIG node. AND nodes store two fanin literals; primary inputs store
/// their varId; node 0 is the constant-FALSE node.
struct Node {
  Lit fanin0;          ///< AND: left fanin. PI/const: unused sentinel.
  Lit fanin1;          ///< AND: right fanin. PI: packed varId.
  std::uint32_t level; ///< Longest path from a leaf (const/PI are level 0).
};

class Aig {
 public:
  Aig();

  Aig(const Aig&) = delete;
  Aig& operator=(const Aig&) = delete;
  Aig(Aig&&) = default;
  Aig& operator=(Aig&&) = default;

  // ----- construction ------------------------------------------------

  /// Returns the literal of the primary input with external id `var`,
  /// creating the PI node on first use.
  Lit pi(VarId var);

  /// True when a PI node for `var` already exists.
  [[nodiscard]] bool hasPi(VarId var) const {
    return var < piByVar_.size() && piByVar_[var] != 0;
  }

  /// Node id of the PI for `var`. Precondition: hasPi(var).
  [[nodiscard]] NodeId piNodeOf(VarId var) const { return piByVar_[var]; }

  /// AND with structural hashing and simplification rules.
  Lit mkAnd(Lit a, Lit b);

  Lit mkOr(Lit a, Lit b) { return !mkAnd(!a, !b); }
  Lit mkXor(Lit a, Lit b);
  Lit mkXnor(Lit a, Lit b) { return !mkXor(a, b); }
  Lit mkImplies(Lit a, Lit b) { return mkOr(!a, b); }
  /// if-then-else: s ? t : e.
  Lit mkMux(Lit s, Lit t, Lit e);

  /// Conjunction / disjunction over a span (balanced reduction).
  Lit mkAndAll(std::span<const Lit> lits);
  Lit mkOrAll(std::span<const Lit> lits);

  /// Enables/disables the two-level rewrite rules applied inside mkAnd
  /// (contradiction, absorption and substitution through one AND level).
  void setTwoLevelRules(bool enabled) { twoLevel_ = enabled; }
  [[nodiscard]] bool twoLevelRules() const { return twoLevel_; }

  // ----- node inspection ---------------------------------------------

  /// Process-unique identity of this manager's node space. Nodes are
  /// append-only within one identity, so anything indexed by NodeId (CNF
  /// encodings, proven-equivalence caches, simulation slots) stays valid
  /// while uid() is unchanged. Moving a manager moves its identity: after
  /// `a = std::move(b)`, a.uid() is b's old uid and every cache keyed to
  /// a's previous uid must be dropped. This is what sweep::SweepContext
  /// validates its persistent session against.
  [[nodiscard]] std::uint64_t uid() const { return uid_; }

  [[nodiscard]] std::size_t numNodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t numPis() const { return pis_.size(); }
  [[nodiscard]] std::size_t numAnds() const {
    return nodes_.size() - 1 - pis_.size();
  }

  [[nodiscard]] bool isConst(NodeId n) const { return n == 0; }
  [[nodiscard]] bool isPi(NodeId n) const {
    return n != 0 && nodes_[n].fanin0 == kPiMark;
  }
  [[nodiscard]] bool isAnd(NodeId n) const {
    return n != 0 && nodes_[n].fanin0 != kPiMark;
  }

  /// The external variable id of a PI node. Precondition: isPi(n).
  [[nodiscard]] VarId piVar(NodeId n) const {
    return nodes_[n].fanin1.raw();
  }

  /// Fanins of an AND node. Precondition: isAnd(n).
  [[nodiscard]] Lit fanin0(NodeId n) const { return nodes_[n].fanin0; }
  [[nodiscard]] Lit fanin1(NodeId n) const { return nodes_[n].fanin1; }

  [[nodiscard]] std::uint32_t level(NodeId n) const {
    return nodes_[n].level;
  }

  /// All PI node ids in creation order.
  [[nodiscard]] const std::vector<NodeId>& pis() const { return pis_; }

  /// Current capacity of the structural-hash table (dense-layer metric;
  /// grows by doubling past the initial 1024 slots).
  [[nodiscard]] std::size_t strashCapacity() const {
    return strash_.capacity();
  }

  // ----- traversal ----------------------------------------------------

  /// Caller-owned visited marks for the const-safe supportVars overload
  /// below. The default traversals use the manager's shared epoch
  /// scratch, which they mutate even though they are const; the
  /// auditor's support walk (its only user) takes this instead, so an
  /// audit never writes to the manager it inspects.
  /// Reusable across calls — the epoch stamp makes clears O(1).
  struct TraversalScratch {
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;
  };

  /// AND nodes in the transitive fanin of `roots`, in topological order
  /// (fanins before fanouts). PIs and the constant are not included.
  [[nodiscard]] std::vector<NodeId> coneAnds(std::span<const Lit> roots) const;

  /// Number of AND nodes in the cone of `root` — the paper's circuit-size
  /// metric for state sets.
  [[nodiscard]] std::size_t coneSize(Lit root) const;
  [[nodiscard]] std::size_t coneSize(std::span<const Lit> roots) const;

  /// External variable ids of the PIs in the structural support of
  /// `roots`, sorted ascending.
  [[nodiscard]] std::vector<VarId> supportVars(
      std::span<const Lit> roots) const;
  [[nodiscard]] std::vector<VarId> supportVars(Lit root) const;

  /// Variant with caller-owned scratch (see TraversalScratch).
  [[nodiscard]] std::vector<VarId> supportVars(
      std::span<const Lit> roots, TraversalScratch& scratch) const;

  /// True when variable `var` appears in the structural support of `root`.
  [[nodiscard]] bool dependsOn(Lit root, VarId var) const;

  // ----- functional operations ----------------------------------------

  /// Positive/negative cofactor: substitutes constant `value` for `var`
  /// and rebuilds (re-hashed, re-simplified) in this manager.
  Lit cofactor(Lit f, VarId var, bool value);

  /// Simultaneous substitution of literals for variables (quantification
  /// by substitution / "in-lining" from §3 of the paper). Variables not in
  /// `map` are left untouched; a variable listed twice takes its last
  /// entry.
  Lit compose(Lit f, std::span<const VarSub> map);
  Lit compose(Lit f, std::initializer_list<VarSub> map) {
    return compose(f, std::span<const VarSub>(map.begin(), map.size()));
  }

  /// Rebuilds the cones of `roots` replacing whole internal nodes:
  /// whenever a node id appears in `nodeMap`, the mapped literal is used
  /// instead of the node (complement composed through). This is how the
  /// sweeping and don't-care engines commit merges.
  std::vector<Lit> rebuildWithNodeMap(std::span<const Lit> roots,
                                      const NodeMap& nodeMap);

  // ----- simulation -----------------------------------------------------

  /// 64-way parallel simulation of the cones of `roots`. `piWords` maps a
  /// varId to its 64 input patterns; unmapped PIs simulate as all-zero.
  /// Returns one 64-bit word per root.
  [[nodiscard]] std::vector<std::uint64_t> simulate(
      std::span<const Lit> roots,
      const util::VarTable<std::uint64_t>& piWords) const;

  /// Single-pattern evaluation under a complete assignment.
  [[nodiscard]] bool evaluate(
      Lit root, const std::unordered_map<VarId, bool>& assignment) const;

  /// Dense variant: `assignment[v]` is the value of VarId v; variables at
  /// or beyond the vector's size evaluate as false. The engines' per-
  /// iteration init checks and trace replay use this to avoid rebuilding
  /// a hash map per evaluation.
  [[nodiscard]] bool evaluate(Lit root,
                              const std::vector<bool>& assignment) const;

  // ----- transfer -------------------------------------------------------

  /// Copies the cones of `roots` from `src` into this manager. PIs are
  /// matched by varId; the result is structurally hashed afresh, so this
  /// doubles as compaction into a clean manager.
  std::vector<Lit> transferFrom(const Aig& src, std::span<const Lit> roots);

  /// As above, and additionally records (src NodeId → literal here) for
  /// every node of the transferred cones in `outMap`. This is how caches
  /// keyed by the source manager's node ids (e.g. the sweep session's
  /// proven/refuted pairs) survive a compaction: facts about transferred
  /// nodes are rewritten through the map, facts about dropped scratch
  /// nodes are discarded.
  std::vector<Lit> transferFrom(const Aig& src, std::span<const Lit> roots,
                                std::vector<std::pair<NodeId, Lit>>& outMap);

 private:
  /// Introspection seam for the deep-invariant auditor and its
  /// corruption-injection tests (audit/audit.hpp) — never production code.
  friend struct ::cbq::audit::Access;

  static constexpr Lit kPiMark = Lit::fromRaw(0xffffffffu);

  NodeId newNode(Lit f0, Lit f1, std::uint32_t level);
  Lit mkAndRaw(Lit a, Lit b);  // hashing + one-level rules only
  bool tryTwoLevel(Lit a, Lit b, Lit& out);

  std::vector<Lit> transferFromImpl(
      const Aig& src, std::span<const Lit> roots,
      std::vector<std::pair<NodeId, Lit>>* outMap);

  /// Generic iterative cone rebuild. `leaf(var)` supplies the literal that
  /// replaces the PI with external id `var`; `nodeMap` (optional) replaces
  /// whole nodes before their fanins are visited. The memo lives in
  /// memo_ — rebuilds must not nest.
  template <typename LeafFn>
  std::vector<Lit> rebuild(std::span<const Lit> roots, LeafFn&& leaf,
                           const NodeMap* nodeMap);

  // Epoch-stamped visited marks (avoid O(n) clears per traversal).
  void bumpEpoch() const;
  [[nodiscard]] bool visited(NodeId n) const { return stamp_[n] == epoch_; }
  void markVisited(NodeId n) const { stamp_[n] = epoch_; }

  std::uint64_t uid_ = 0;
  std::vector<Node> nodes_;
  std::vector<NodeId> pis_;
  std::vector<NodeId> piByVar_;  ///< VarId → PI node id; 0 = no PI yet
  StrashTable strash_;
  bool twoLevel_ = true;

  ScratchMemo memo_;                    ///< shared cone-rebuild memo
  util::VarTable<Lit> substScratch_;    ///< compose(): VarId → replacement
  mutable std::vector<std::uint64_t> simVal_;  ///< simulate() value arena

  mutable std::vector<std::uint32_t> stamp_;
  mutable std::uint32_t epoch_ = 0;
};

}  // namespace cbq::aig
