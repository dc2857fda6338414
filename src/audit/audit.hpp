#pragma once
// Deep-invariant auditor — machine-checkable structural invariants.
//
// Every data structure the engines' soundness rests on carries implicit
// invariants: the strash table mirrors the node array, levels and fanin
// order are monotone, epoch stamps never run ahead of their epoch, every
// merge of the sweep/DC refinement loop points at an earlier node, CNF
// literal maps point at live solver variables, and a Network's latches
// are fully bound. This module turns those contracts from prose into
// checks:
//
//   auditAig / auditNetwork / auditCnf / auditSignatures /
//   auditMergeOrder / auditSweepContext
//
// return a Report naming each violated invariant (e.g.
// "aig.strash.stale-entry") with a precise diagnostic. The functions are
// ALWAYS compiled — tests and `cbq check --audit` call them in any
// build. What the CBQ_AUDIT build option gates is the phase-boundary
// hooks (CBQ_AUDIT_CHECK below): post-prep-pass, post-compaction,
// post-sweep-merge and session-pause call sites compile to nothing by
// default, exactly like CBQ_OBS spans and CBQ_FAULT_POINTs, and fire
// only when the hooks are both compiled in AND armed at runtime
// (setArmed, wired to `cbq check --audit`).
//
// A fired hook throws AuditError. Inside the portfolio the containment
// barriers quarantine it like any engine failure (the run degrades, the
// process survives) but preserve the "audit violation" prefix in the
// run's error string, which `cbq check --audit` maps to its dedicated
// exit code (30).
//
// The Access struct at the bottom is the single friend-key giving the
// auditor (and its corruption-injection tests) read/write access to the
// audited internals. Nothing else may use it.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "aig/aig.hpp"
#include "aig/scratch.hpp"
#include "aig/strash.hpp"
#include "cnf/aig_cnf.hpp"
#include "mc/network.hpp"
#include "sat/circuit_solver.hpp"
#include "sweep/signatures.hpp"

namespace cbq::sweep {
class SweepContext;
}

namespace cbq::audit {

/// One violated invariant: its catalogue name plus a located diagnostic.
struct Violation {
  std::string invariant;  ///< e.g. "aig.strash.stale-entry"
  std::string detail;     ///< e.g. "slot 17: key != keyOf(fanins of node 42)"
};

/// The result of one audit pass. Empty = every invariant held.
class Report {
 public:
  void add(std::string invariant, std::string detail) {
    violations_.push_back({std::move(invariant), std::move(detail)});
  }
  void merge(Report other) {
    for (auto& v : other.violations_) violations_.push_back(std::move(v));
  }

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

  /// True when some violation's invariant name equals `invariant` — the
  /// corruption-injection tests assert on exactly this.
  [[nodiscard]] bool has(std::string_view invariant) const;

  /// "name: detail; name: detail (+N more)" — capped human summary.
  [[nodiscard]] std::string summary(std::size_t maxItems = 4) const;

 private:
  std::vector<Violation> violations_;
};

/// Thrown by a fired audit hook (and by require()). A std::logic_error:
/// a violated structural invariant is a program bug, never an input
/// condition. what() always starts with "audit violation".
class AuditError : public std::logic_error {
 public:
  AuditError(std::string where, Report report);

  [[nodiscard]] const Report& report() const { return report_; }
  [[nodiscard]] const std::string& where() const { return where_; }

 private:
  std::string where_;
  Report report_;
};

/// Runtime arming of the compiled-in hooks (one relaxed load when
/// disarmed). `cbq check --audit` arms; tests arm/disarm directly.
[[nodiscard]] bool armed();
void setArmed(bool on);

/// Throws AuditError(where, report) when the report is not ok().
void require(Report report, std::string where);

// ----- audit passes ---------------------------------------------------

/// Strash ↔ node-array consistency, fanin/topological/level ordering,
/// PI bookkeeping, epoch-stamp coherence of the manager scratch and the
/// shared ScratchMemo.
[[nodiscard]] Report auditAig(const aig::Aig& aig);

/// Network well-formedness: latch next/init bindings line up, state and
/// input variables are disjoint, the bad/next cones reference only live
/// nodes and only declared variables. Includes auditAig(net.aig).
[[nodiscard]] Report auditNetwork(const mc::Network& net);

/// CNF literal-map consistency: every mapped node names a live solver
/// variable, no two nodes share one, and the encoded-AND count matches.
[[nodiscard]] Report auditCnf(const cnf::AigCnf& cnf);

/// Signature-arena slot validity: slots in range, no slot aliasing,
/// active words within the reserved stride, orders consistent. An
/// exhaustive arena must hold 2^max(n-6,0) words over its n support
/// inputs, and its PI rows must equal the enumeration of every pattern
/// (`sig.exhaustive.pattern`).
[[nodiscard]] Report auditSignatures(const sweep::Signatures& sigs);

/// Merge-map acyclicity: every node of `order` (topological) that
/// `merges` maps points at a constant, a PI or an earlier node of
/// `order` — so rebuilding through the map terminates.
[[nodiscard]] Report auditMergeOrder(const aig::Aig& aig,
                                     std::span<const aig::NodeId> order,
                                     const aig::NodeMap& merges);

/// Circuit-solver arena well-formedness: stored constraint gates have
/// sane sizes and lie inside the arena, their literals reference synced
/// nodes, the learnt flag matches the list holding the gate, every gate
/// is watched by (exactly) the negations of its first two literals with
/// no dangling watchers, the justification frontier's heap and index
/// agree and hold only AND nodes, and the fanout lists hold exactly the
/// in-focus parents — every in-focus AND (every synced AND when the
/// solver is unfocused) once in each fanin's list, nothing else.
[[nodiscard]] Report auditCircuitSolver(const sat::CircuitSolver& solver);

/// A bound session's solver against its manager (no-op when unbound):
/// auditCircuitSolver on the session's circuit solver.
[[nodiscard]] Report auditSweepContext(sweep::SweepContext& ctx,
                                       const aig::Aig& aig);

// ----- deterministic corruption (selftest seam) -----------------------

/// Names accepted by selftestCorrupt: "strash", "epoch", "latch".
[[nodiscard]] const std::vector<std::string>& selftestClasses();

/// Seeds one invariant violation of the named class into `net` so the
/// exit-code contract of `cbq check --audit` can be exercised end to
/// end. Returns false (changing nothing) for an unknown class or a
/// network too small to corrupt.
[[nodiscard]] bool selftestCorrupt(mc::Network& net, const std::string& cls);

// ----- the friend key -------------------------------------------------

/// Befriended by Aig, StrashTable, ScratchMemo, AigCnf, Signatures and
/// CircuitSolver. Used by the audit passes (read) and the corruption-
/// injection tests (write); production code must never touch it.
struct Access {
  // Aig
  static const std::vector<aig::Node>& nodes(const aig::Aig& a) {
    return a.nodes_;
  }
  static std::vector<aig::Node>& nodes(aig::Aig& a) { return a.nodes_; }
  static const aig::StrashTable& strash(const aig::Aig& a) {
    return a.strash_;
  }
  static aig::StrashTable& strash(aig::Aig& a) { return a.strash_; }
  static const std::vector<aig::NodeId>& piByVar(const aig::Aig& a) {
    return a.piByVar_;
  }
  static std::vector<std::uint32_t>& stamps(const aig::Aig& a) {
    return a.stamp_;  // mutable member: epoch scratch
  }
  static std::uint32_t epoch(const aig::Aig& a) { return a.epoch_; }
  static void setEpoch(const aig::Aig& a, std::uint32_t e) { a.epoch_ = e; }
  static const aig::ScratchMemo& memo(const aig::Aig& a) { return a.memo_; }
  static aig::ScratchMemo& memo(aig::Aig& a) { return a.memo_; }

  // StrashTable
  static const std::vector<aig::StrashTable::Entry>& strashSlots(
      const aig::StrashTable& t) {
    return t.slots_;
  }
  static std::vector<aig::StrashTable::Entry>& strashSlots(
      aig::StrashTable& t) {
    return t.slots_;
  }

  // ScratchMemo
  static const std::vector<std::uint32_t>& memoStamps(
      const aig::ScratchMemo& m) {
    return m.stamp_;
  }
  static std::vector<std::uint32_t>& memoStamps(aig::ScratchMemo& m) {
    return m.stamp_;
  }
  static std::size_t memoValSize(const aig::ScratchMemo& m) {
    return m.val_.size();
  }
  static std::uint32_t memoEpoch(const aig::ScratchMemo& m) {
    return m.epoch_;
  }

  // AigCnf
  static const sat::Solver* solver(const cnf::AigCnf& c) {
    return c.solver_;
  }
  static const std::vector<sat::Var>& nodeVars(const cnf::AigCnf& c) {
    return c.nodeVar_;
  }
  static std::vector<sat::Var>& nodeVars(cnf::AigCnf& c) {
    return c.nodeVar_;
  }
  static std::size_t encodedAnds(const cnf::AigCnf& c) {
    return c.encodedAnds_;
  }

  // Signatures
  static const std::vector<sweep::Signatures::Slot>& slotOf(
      const sweep::Signatures& s) {
    return s.slotOf_;
  }
  static std::vector<sweep::Signatures::Slot>& slotOf(sweep::Signatures& s) {
    return s.slotOf_;
  }
  static const std::vector<std::uint64_t>& arena(const sweep::Signatures& s) {
    return s.arena_;
  }
  static std::vector<std::uint64_t>& arena(sweep::Signatures& s) {
    return s.arena_;
  }
  static const std::vector<aig::NodeId>& supportNodes(
      const sweep::Signatures& s) {
    return s.supportNode_;
  }
  static const std::vector<aig::NodeId>& order(const sweep::Signatures& s) {
    return s.order_;
  }

  // CircuitSolver
  static const std::vector<std::uint32_t>& circuitArena(
      const sat::CircuitSolver& s) {
    return s.arena_;
  }
  static std::vector<std::uint32_t>& circuitArena(sat::CircuitSolver& s) {
    return s.arena_;
  }
  static const std::vector<std::uint32_t>& circuitPermanents(
      const sat::CircuitSolver& s) {
    return s.permanents_;
  }
  static const std::vector<std::uint32_t>& circuitLearnts(
      const sat::CircuitSolver& s) {
    return s.learnts_;
  }
  static const std::vector<std::vector<sat::CircuitSolver::Watcher>>&
  circuitWatches(const sat::CircuitSolver& s) {
    return s.watches_;
  }
  static std::vector<std::vector<sat::CircuitSolver::Watcher>>&
  circuitWatches(sat::CircuitSolver& s) {
    return s.watches_;
  }
  static std::size_t circuitSyncedNodes(const sat::CircuitSolver& s) {
    return s.assigns_.size();
  }
  static const std::vector<aig::NodeId>& circuitHeap(
      const sat::CircuitSolver& s) {
    return s.heap_;
  }
  static std::vector<aig::NodeId>& circuitHeap(sat::CircuitSolver& s) {
    return s.heap_;
  }
  static const std::vector<int>& circuitHeapIndex(
      const sat::CircuitSolver& s) {
    return s.heapIndex_;
  }
  static const aig::Aig& circuitAig(const sat::CircuitSolver& s) {
    return *s.aig_;
  }
  static std::vector<std::uint32_t>& circuitHead(sat::CircuitSolver& s) {
    return s.head_;
  }
  static const std::vector<std::uint32_t>& circuitNextEdge(
      const sat::CircuitSolver& s) {
    return s.nextEdge_;
  }
  static std::vector<std::uint32_t>& circuitNextEdge(sat::CircuitSolver& s) {
    return s.nextEdge_;
  }
  static std::uint32_t circuitFanoutHead(const sat::CircuitSolver& s,
                                         aig::NodeId n) {
    return s.fanoutHead(n);
  }
  static bool circuitInFocus(const sat::CircuitSolver& s, aig::NodeId n) {
    return s.inFocus(n);
  }
  static constexpr std::uint32_t kCircuitNoEdge =
      sat::CircuitSolver::kNoEdge;
};

}  // namespace cbq::audit

// ----- phase-boundary hooks -------------------------------------------
// CBQ_AUDIT_CHECK(where, reportExpr) evaluates reportExpr and throws
// AuditError on violations — but only in a -DCBQ_AUDIT=ON build AND when
// runtime-armed. The default build compiles the whole call site away
// (reportExpr unevaluated), keeping the audit-off overhead at zero.
#if defined(CBQ_AUDIT)
#define CBQ_AUDIT_CHECK(where, ...)                     \
  do {                                                  \
    if (::cbq::audit::armed())                          \
      ::cbq::audit::require((__VA_ARGS__), (where));    \
  } while (0)
#else
#define CBQ_AUDIT_CHECK(where, ...) \
  do {                              \
  } while (0)
#endif
