#pragma once
// Reduced Ordered Binary Decision Diagrams.
//
// Two roles in this reproduction:
//  * size-bounded **BDD sweeping**, the merge phase's alternative prover
//    (§2.1, after Kuehlmann–Krohm "Equivalence Checking Using Cuts and
//    Heaps"; used when SweepOptions::useSat is off): node budgets make
//    BDD construction abort cheaply on hard cones, and
//  * the canonical **BDD reachability baseline** the paper positions
//    itself against (backward pre-image by vector compose, forward image
//    by and-exists over a partitioned transition relation).
//
// Design: no complement edges (canonicity is then plain structural
// equality), arena allocation without garbage collection, ite-based
// operators with computed tables, and a hard node limit signalled by
// NodeLimitExceeded — resource aborts are the one place this codebase
// uses exceptions for control flow, because they must unwind through
// deep operator recursions.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aig/aig.hpp"

namespace cbq::bdd {

/// Reference to a BDD node inside one manager. 0 = FALSE, 1 = TRUE.
using BddRef = std::uint32_t;

inline constexpr BddRef kFalseBdd = 0;
inline constexpr BddRef kTrueBdd = 1;

/// Thrown when an operation would exceed the manager's node limit.
struct NodeLimitExceeded : std::runtime_error {
  NodeLimitExceeded() : std::runtime_error("BDD node limit exceeded") {}
};

/// Thrown when the manager's interrupt callback fires mid-operation —
/// same unwind-through-deep-recursion rationale as NodeLimitExceeded.
struct Interrupted : std::runtime_error {
  Interrupted() : std::runtime_error("BDD operation interrupted") {}
};

class BddManager {
 public:
  /// `nodeLimit` caps the total number of allocated nodes (0 = unlimited).
  explicit BddManager(std::size_t nodeLimit = 0) : nodeLimit_(nodeLimit) {}

  /// Installs a cooperative interrupt, polled every few hundred node
  /// allocations; when it returns true the current operation throws
  /// Interrupted. This is how a portfolio cancel lands inside one long
  /// exists/andExists call. Pass nullptr to clear.
  void setInterrupt(std::function<bool()> callback) {
    interrupt_ = std::move(callback);
  }

  // ----- variables -----------------------------------------------------

  /// BDD for external variable `var`; assigns the next free level on
  /// first use (variable order = order of registration).
  BddRef var(aig::VarId v);

  /// Registers `v` (fixing its place in the order) without building.
  void registerVar(aig::VarId v) { levelOf(v); }

  [[nodiscard]] std::size_t numLevels() const { return levelToVar_.size(); }
  [[nodiscard]] aig::VarId varAtLevel(std::uint32_t level) const {
    return levelToVar_[level];
  }

  // ----- operators -------------------------------------------------------

  BddRef ite(BddRef f, BddRef g, BddRef h);
  BddRef bddNot(BddRef f) { return ite(f, kFalseBdd, kTrueBdd); }
  BddRef bddAnd(BddRef f, BddRef g) { return ite(f, g, kFalseBdd); }
  BddRef bddOr(BddRef f, BddRef g) { return ite(f, kTrueBdd, g); }
  BddRef bddXor(BddRef f, BddRef g) { return ite(f, bddNot(g), g); }
  BddRef bddImplies(BddRef f, BddRef g) { return ite(f, g, kTrueBdd); }

  /// Cofactor w.r.t. a single variable.
  BddRef cofactor(BddRef f, aig::VarId v, bool value);

  /// Existential quantification over the variables of `vars`.
  BddRef exists(BddRef f, std::span<const aig::VarId> vars);

  /// Simultaneous functional composition: each variable present in `map`
  /// is replaced by its BDD. This is backward pre-image F(δ(s,i)).
  BddRef compose(BddRef f, const std::unordered_map<aig::VarId, BddRef>& map);

  /// Combined ∃vars (f ∧ g) — the relational-product workhorse of the
  /// forward-image baseline.
  BddRef andExists(BddRef f, BddRef g, std::span<const aig::VarId> vars);

  // ----- inspection --------------------------------------------------------

  [[nodiscard]] bool isTerminal(BddRef f) const { return f <= 1; }

  /// Number of nodes reachable from `f` (excluding terminals).
  [[nodiscard]] std::size_t size(BddRef f) const;

  /// Total allocated nodes in the manager.
  [[nodiscard]] std::size_t numNodes() const { return nodes_.size(); }

  /// Number of satisfying assignments of `f` over all registered levels.
  [[nodiscard]] double satCount(BddRef f) const;

  /// Evaluates `f` under a (complete for its support) assignment.
  [[nodiscard]] bool evaluate(
      BddRef f, const std::unordered_map<aig::VarId, bool>& assignment) const;

  /// Dense variant: `assignment[v]` is VarId v's value; out-of-range
  /// variables read as false (mirrors aig::Aig::evaluate).
  [[nodiscard]] bool evaluate(BddRef f,
                              const std::vector<bool>& assignment) const;

  /// One satisfying assignment of `f` (empty when f = FALSE). Variables
  /// skipped on the chosen path are left out (free).
  [[nodiscard]] std::unordered_map<aig::VarId, bool> anySat(BddRef f) const;

  /// Drops the operator caches (unique table is kept).
  void clearCaches();

 private:
  struct Node {
    std::uint32_t level;
    BddRef lo;  // value when the level's variable is 0
    BddRef hi;  // value when the level's variable is 1
  };

  struct UniqueKey {
    std::uint32_t level;
    BddRef lo, hi;
    bool operator==(const UniqueKey&) const = default;
  };
  struct UniqueHash {
    std::size_t operator()(const UniqueKey& k) const {
      std::uint64_t h = k.level;
      h = h * 0x9e3779b97f4a7c15ULL + k.lo;
      h = h * 0x9e3779b97f4a7c15ULL + k.hi;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  struct TripleKey {
    BddRef a, b, c;
    bool operator==(const TripleKey&) const = default;
  };
  struct TripleHash {
    std::size_t operator()(const TripleKey& k) const {
      std::uint64_t h = k.a;
      h = h * 0x9e3779b97f4a7c15ULL + k.b;
      h = h * 0x9e3779b97f4a7c15ULL + k.c;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };

  static constexpr std::uint32_t kTermLevel = 0xffffffffu;

  std::uint32_t levelOf(aig::VarId v);
  [[nodiscard]] std::uint32_t nodeLevel(BddRef f) const {
    return isTerminal(f) ? kTermLevel : nodes_[f - 2].level;
  }
  [[nodiscard]] BddRef lo(BddRef f) const { return nodes_[f - 2].lo; }
  [[nodiscard]] BddRef hi(BddRef f) const { return nodes_[f - 2].hi; }

  BddRef mkNode(std::uint32_t level, BddRef lo, BddRef hi);
  BddRef existsOne(BddRef f, std::uint32_t level,
                   std::unordered_map<BddRef, BddRef>& memo);
  BddRef composeRec(BddRef f,
                    const std::unordered_map<std::uint32_t, BddRef>& byLevel,
                    std::unordered_map<BddRef, BddRef>& memo);
  BddRef andExistsRec(BddRef f, BddRef g, const std::vector<bool>& quantified,
                      std::unordered_map<TripleKey, BddRef, TripleHash>& memo);

  std::vector<Node> nodes_;  // node i stored at index i-2
  std::unordered_map<UniqueKey, BddRef, UniqueHash> unique_;
  std::unordered_map<TripleKey, BddRef, TripleHash> iteCache_;
  std::unordered_map<aig::VarId, std::uint32_t> varLevel_;
  std::vector<aig::VarId> levelToVar_;
  std::size_t nodeLimit_;
  std::function<bool()> interrupt_;
  std::uint32_t allocsSinceInterruptPoll_ = 0;
};

/// Builds the BDD of an AIG cone (aborts with NodeLimitExceeded when the
/// manager's limit is hit). PIs are matched by varId.
BddRef aigToBdd(const aig::Aig& aig, aig::Lit root, BddManager& mgr);

}  // namespace cbq::bdd
