#include "audit/audit.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "sweep/sweep_context.hpp"

namespace cbq::audit {

namespace {

std::atomic<bool> g_armed{false};

/// Located diagnostic formatter: every violation carries enough context
/// (indices, ids, expected vs actual) to find the corrupt element without
/// a debugger.
class Diag {
 public:
  template <typename T>
  Diag& operator<<(const T& v) {
    os_ << v;
    return *this;
  }
  [[nodiscard]] std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

}  // namespace

bool Report::has(std::string_view invariant) const {
  for (const Violation& v : violations_)
    if (v.invariant == invariant) return true;
  return false;
}

std::string Report::summary(std::size_t maxItems) const {
  std::ostringstream os;
  const std::size_t shown = std::min(maxItems, violations_.size());
  for (std::size_t i = 0; i < shown; ++i) {
    if (i != 0) os << "; ";
    os << violations_[i].invariant << ": " << violations_[i].detail;
  }
  if (violations_.size() > shown)
    os << " (+" << (violations_.size() - shown) << " more)";
  return os.str();
}

namespace {
std::string describe(const std::string& where, const Report& report) {
  std::ostringstream os;
  os << "audit violation at " << where << ": " << report.summary();
  return os.str();
}
}  // namespace

AuditError::AuditError(std::string where, Report report)
    : std::logic_error(describe(where, report)),
      where_(std::move(where)),
      report_(std::move(report)) {}

bool armed() { return g_armed.load(std::memory_order_relaxed); }
void setArmed(bool on) { g_armed.store(on, std::memory_order_relaxed); }

void require(Report report, std::string where) {
  if (!report.ok()) throw AuditError(std::move(where), std::move(report));
}

// ----- AIG ------------------------------------------------------------

Report auditAig(const aig::Aig& a) {
  Report r;
  const auto& nodes = Access::nodes(a);
  const std::size_t numNodes = nodes.size();
  if (numNodes == 0) {
    r.add("aig.node.const", "manager has no constant node 0");
    return r;
  }

  // Per-node structure: fanin ordering (mkAndRaw normalizes so
  // fanin0.raw() < fanin1.raw() strictly), topological append-only order,
  // no constant fanins (the one-level rules eliminate them at build
  // time), and exact longest-path levels.
  std::size_t numAnds = 0;
  for (aig::NodeId n = 1; n < numNodes; ++n) {
    if (a.isPi(n)) {
      if (nodes[n].level != 0)
        r.add("aig.node.level",
              (Diag() << "PI node " << n << " has level " << nodes[n].level)
                  .str());
      const aig::VarId v = a.piVar(n);
      const auto& byVar = Access::piByVar(a);
      if (v >= byVar.size() || byVar[v] != n)
        r.add("aig.pi.binding",
              (Diag() << "PI node " << n << " carries varId " << v
                      << " but piByVar does not map it back")
                  .str());
      continue;
    }
    ++numAnds;
    const aig::Lit f0 = nodes[n].fanin0;
    const aig::Lit f1 = nodes[n].fanin1;
    if (f0.node() >= n || f1.node() >= n) {
      r.add("aig.node.topo-order",
            (Diag() << "AND node " << n << " references fanin node "
                    << std::max(f0.node(), f1.node())
                    << " at or above its own id")
                .str());
      continue;  // levels/strash of a non-topological node are meaningless
    }
    if (f0.raw() >= f1.raw())
      r.add("aig.node.fanin-order",
            (Diag() << "AND node " << n << " fanins not strictly ordered: "
                    << f0.raw() << " >= " << f1.raw())
                .str());
    if (f0.node() == 0 || f1.node() == 0)
      r.add("aig.node.const-fanin",
            (Diag() << "AND node " << n
                    << " has a constant fanin (one-level rules bypassed)")
                .str());
    const std::uint32_t want =
        1 + std::max(nodes[f0.node()].level, nodes[f1.node()].level);
    if (nodes[n].level != want)
      r.add("aig.node.level",
            (Diag() << "AND node " << n << " level " << nodes[n].level
                    << " != 1 + max(fanin levels) = " << want)
                .str());
    const aig::NodeId hit = Access::strash(a).find(f0, f1);
    if (hit != n)
      r.add("aig.strash.missing-node",
            (Diag() << "AND node " << n << " not found under its fanin key"
                    << " (find returned " << hit << ")")
                .str());
  }

  // Strash table ↔ node array: every occupied slot names a live AND whose
  // fanins hash to exactly that key, each key appears once, and the
  // occupancy count matches the AND count (no stale leftovers).
  {
    const auto& slots = Access::strashSlots(Access::strash(a));
    std::unordered_set<std::uint64_t> seenKeys;
    std::size_t occupied = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const auto& e = slots[i];
      if (e.id == 0) continue;
      ++occupied;
      if (e.id >= numNodes || !a.isAnd(e.id)) {
        r.add("aig.strash.stale-entry",
              (Diag() << "slot " << i << " names node " << e.id
                      << " which is not a live AND")
                  .str());
        continue;
      }
      const std::uint64_t want =
          aig::StrashTable::keyOf(nodes[e.id].fanin0, nodes[e.id].fanin1);
      if (e.key != want)
        r.add("aig.strash.stale-entry",
              (Diag() << "slot " << i << " key " << e.key
                      << " != keyOf(fanins of node " << e.id << ") = " << want)
                  .str());
      if (!seenKeys.insert(e.key).second)
        r.add("aig.strash.duplicate-key",
              (Diag() << "key " << e.key << " occupies more than one slot")
                  .str());
    }
    if (occupied != numAnds || Access::strash(a).size() != numAnds)
      r.add("aig.strash.size",
            (Diag() << "occupied slots " << occupied << " / declared size "
                    << Access::strash(a).size() << " != AND count " << numAnds)
                .str());
  }

  // PI list side of the bijection.
  for (const aig::NodeId p : a.pis())
    if (p >= numNodes || !a.isPi(p))
      r.add("aig.pi.binding",
            (Diag() << "pis() entry " << p << " is not a PI node").str());
  {
    const auto& byVar = Access::piByVar(a);
    for (aig::VarId v = 0; v < byVar.size(); ++v)
      if (byVar[v] != 0 && (byVar[v] >= numNodes || !a.isPi(byVar[v]) ||
                            a.piVar(byVar[v]) != v))
        r.add("aig.pi.binding",
              (Diag() << "piByVar[" << v << "] = " << byVar[v]
                      << " does not name a PI carrying varId " << v)
                  .str());
  }

  // Epoch coherence of the manager's shared traversal scratch: one stamp
  // per node (ctor + newNode keep them in lockstep) and no stamp from the
  // future (a stamp above the epoch would read as visited after the next
  // bump, silently truncating cone walks).
  {
    const auto& stamps = Access::stamps(a);
    if (stamps.size() != numNodes)
      r.add("aig.epoch.stamp-size",
            (Diag() << "stamp arena holds " << stamps.size() << " entries for "
                    << numNodes << " nodes")
                .str());
    const std::uint32_t epoch = Access::epoch(a);
    for (std::size_t n = 0; n < stamps.size(); ++n)
      if (stamps[n] > epoch) {
        r.add("aig.epoch.stamp-ahead",
              (Diag() << "stamp[" << n << "] = " << stamps[n]
                      << " is ahead of epoch " << epoch)
                  .str());
        break;  // one located witness is enough
      }
  }

  // Same discipline for the shared cone-rebuild memo.
  {
    const auto& memo = Access::memo(a);
    const auto& stamps = Access::memoStamps(memo);
    if (stamps.size() != Access::memoValSize(memo))
      r.add("aig.memo.size",
            (Diag() << "memo stamp arena " << stamps.size()
                    << " != value arena " << Access::memoValSize(memo))
                .str());
    const std::uint32_t epoch = Access::memoEpoch(memo);
    for (std::size_t n = 0; n < stamps.size(); ++n)
      if (stamps[n] > epoch) {
        r.add("aig.memo.epoch-ahead",
              (Diag() << "memo stamp[" << n << "] = " << stamps[n]
                      << " is ahead of memo epoch " << epoch)
                  .str());
        break;
      }
  }

  return r;
}

// ----- Network --------------------------------------------------------

Report auditNetwork(const mc::Network& net) {
  Report r = auditAig(net.aig);

  if (net.next.size() != net.stateVars.size())
    r.add("net.shape.next-size",
          (Diag() << net.stateVars.size() << " latches but " << net.next.size()
                  << " next-state functions")
              .str());
  if (net.init.size() != net.stateVars.size())
    r.add("net.shape.init-size",
          (Diag() << net.stateVars.size() << " latches but " << net.init.size()
                  << " initial values")
              .str());

  {
    std::unordered_map<aig::VarId, int> seen;
    for (const aig::VarId v : net.stateVars)
      if (++seen[v] > 1)
        r.add("net.vars.duplicate",
              (Diag() << "state variable " << v << " declared twice").str());
    for (const aig::VarId v : net.inputVars)
      if (++seen[v] > 1)
        r.add("net.vars.duplicate",
              (Diag() << "variable " << v
                      << " declared as both state and input (or twice)")
                  .str());
  }

  // Cone roots must reference live nodes. Checked before the support walk
  // below — traversing a dangling literal would itself fault.
  const std::size_t numNodes = net.aig.numNodes();
  bool dangling = false;
  for (std::size_t i = 0; i < net.next.size(); ++i)
    if (net.next[i].node() >= numNodes) {
      dangling = true;
      r.add("net.latch.dangling-next",
            (Diag() << "latch " << i << " (var "
                    << (i < net.stateVars.size() ? net.stateVars[i] : 0)
                    << ") next-state literal names node " << net.next[i].node()
                    << " but the manager holds only " << numNodes)
                .str());
    }
  if (net.bad.node() >= numNodes) {
    dangling = true;
    r.add("net.bad.dangling",
          (Diag() << "bad literal names node " << net.bad.node()
                  << " but the manager holds only " << numNodes)
              .str());
  }

  if (!dangling) {
    std::unordered_set<aig::VarId> declared;
    declared.insert(net.stateVars.begin(), net.stateVars.end());
    declared.insert(net.inputVars.begin(), net.inputVars.end());
    std::vector<aig::Lit> roots(net.next.begin(), net.next.end());
    roots.push_back(net.bad);
    aig::Aig::TraversalScratch scratch;  // const-safe walk
    for (const aig::VarId v : net.aig.supportVars(roots, scratch))
      if (!declared.contains(v))
        r.add("net.support.undeclared-var",
              (Diag() << "next/bad cones depend on variable " << v
                      << " which is neither a state nor an input variable")
                  .str());
  }

  return r;
}

// ----- CNF ------------------------------------------------------------

Report auditCnf(const cnf::AigCnf& cnf) {
  Report r;
  const aig::Aig& a = cnf.aig();
  const auto& nodeVar = Access::nodeVars(cnf);
  const sat::Solver* solver = Access::solver(cnf);
  const auto liveVars =
      solver != nullptr ? solver->numVars() : 0;

  if (nodeVar.size() > a.numNodes())
    r.add("cnf.litmap.size",
          (Diag() << "literal map covers " << nodeVar.size()
                  << " node ids but the manager holds " << a.numNodes())
              .str());

  std::unordered_map<sat::Var, aig::NodeId> owner;
  std::size_t mappedAnds = 0;
  for (aig::NodeId n = 0; n < nodeVar.size(); ++n) {
    const sat::Var v = nodeVar[n];
    if (v == sat::kUndefVar) continue;
    if (v < 0 || v >= liveVars) {
      r.add("cnf.litmap.dangling-var",
            (Diag() << "node " << n << " maps to solver variable " << v
                    << " but the solver holds only " << liveVars)
                .str());
      continue;
    }
    const auto [it, fresh] = owner.emplace(v, n);
    if (!fresh)
      r.add("cnf.litmap.duplicate-var",
            (Diag() << "solver variable " << v << " claimed by nodes "
                    << it->second << " and " << n)
                .str());
    if (n < a.numNodes() && a.isAnd(n)) ++mappedAnds;
  }
  if (mappedAnds != Access::encodedAnds(cnf))
    r.add("cnf.litmap.encoded-count",
          (Diag() << "literal map holds " << mappedAnds
                  << " AND nodes but encodedAnds counter says "
                  << Access::encodedAnds(cnf))
              .str());

  return r;
}

// ----- Signatures -----------------------------------------------------

Report auditSignatures(const sweep::Signatures& sigs) {
  Report r;
  const auto& slotOf = Access::slotOf(sigs);
  const auto& arena = Access::arena(sigs);
  const auto& order = Access::order(sigs);
  const std::size_t stride = sigs.stride();

  if (sigs.words() > stride)
    r.add("sig.words.overflow",
          (Diag() << "active words " << sigs.words()
                  << " exceed the reserved stride " << stride)
              .str());

  // Slot map: every mapped node's row fits the arena and no two nodes
  // alias one row. Slot 0 is the cone-constant row.
  std::unordered_map<sweep::Signatures::Slot, aig::NodeId> ownerOf;
  for (aig::NodeId n = 0; n < slotOf.size(); ++n) {
    const auto slot = slotOf[n];
    if (slot == sweep::Signatures::kNoSlot) continue;
    if (stride == 0 ||
        (static_cast<std::size_t>(slot) + 1) * stride > arena.size()) {
      r.add("sig.slot.out-of-range",
            (Diag() << "node " << n << " maps to slot " << slot
                    << " whose row exceeds the arena ("
                    << arena.size() / std::max<std::size_t>(stride, 1)
                    << " rows)")
                .str());
      continue;
    }
    const auto [it, fresh] = ownerOf.emplace(slot, n);
    if (!fresh)
      r.add("sig.slot.duplicate",
            (Diag() << "slot " << slot << " claimed by nodes " << it->second
                    << " and " << n)
                .str());
  }

  // Every cone node holds a slot.
  for (const aig::NodeId n : order)
    if (!sigs.inCone(n))
      r.add("sig.slot.out-of-range",
            (Diag() << "cone-order node " << n << " holds no arena slot")
                .str());

  // An exhaustive arena is exactly the enumeration of every pattern.
  if (sigs.exhaustive()) {
    const auto& piNodes = Access::supportNodes(sigs);
    const std::size_t n = piNodes.size();
    const std::size_t words = std::size_t{1} << (n > 6 ? n - 6 : 0);
    if (sigs.words() != words)
      r.add("sig.exhaustive.pattern",
            (Diag() << "exhaustive arena over " << n << " inputs holds "
                    << sigs.words() << " words, not " << words)
                .str());
    for (std::size_t i = 0; i < n; ++i) {
      const auto slot = piNodes[i] < slotOf.size()
                            ? slotOf[piNodes[i]]
                            : sweep::Signatures::kNoSlot;
      if (slot == sweep::Signatures::kNoSlot ||
          (static_cast<std::size_t>(slot) + 1) * stride > arena.size())
        continue;  // reported as a slot violation above
      for (std::size_t w = 0; w < std::min(words, sigs.words()); ++w) {
        // Bit b of word w is pattern 64·w + b; row i holds its bit i.
        std::uint64_t expected = 0;
        for (std::size_t b = 0; b < 64; ++b)
          expected |= (((64 * w + b) >> i) & 1) << b;
        if (arena[slot * stride + w] == expected) continue;
        r.add("sig.exhaustive.pattern",
              (Diag() << "PI node " << piNodes[i] << " (support entry " << i
                      << ") word " << w << " differs from the enumeration")
                  .str());
        break;
      }
    }
  }

  return r;
}

// ----- Merge map --------------------------------------------------------

Report auditMergeOrder(const aig::Aig& aig, std::span<const aig::NodeId> order,
                       const aig::NodeMap& merges) {
  Report r;
  constexpr std::size_t kAbsent = ~std::size_t{0};
  std::vector<std::size_t> position(aig.numNodes(), kAbsent);
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const aig::NodeId n = order[i];
    if (!merges.contains(n)) continue;
    const aig::NodeId t = merges.at(n).node();
    if (aig.isConst(t) || aig.isPi(t)) continue;
    if (t < position.size() && position[t] < i) continue;
    r.add("sweep.merge.order",
          (Diag() << "node " << n << " (position " << i
                  << ") is merged onto node " << t
                  << ", which is not earlier in the candidate order")
              .str());
    break;  // one witness suffices: the rebuild may already cycle
  }
  return r;
}

// ----- CircuitSolver --------------------------------------------------

Report auditCircuitSolver(const sat::CircuitSolver& solver) {
  Report r;
  const auto& arena = Access::circuitArena(solver);
  const auto& watches = Access::circuitWatches(solver);
  const std::size_t synced = Access::circuitSyncedNodes(solver);

  // Stored constraint gates: header sane, inside the arena, literals
  // reference synced nodes, learnt flag matches the owning list.
  std::vector<std::pair<std::uint32_t, bool>> gates;
  for (const std::uint32_t g : Access::circuitPermanents(solver))
    gates.emplace_back(g, false);
  for (const std::uint32_t g : Access::circuitLearnts(solver))
    gates.emplace_back(g, true);
  std::unordered_map<std::uint32_t, std::size_t> expectWatch;
  for (const auto& [g, learnt] : gates) {
    if (g + 2 > arena.size()) {
      r.add("circuit.arena.gate-bounds",
            (Diag() << "gate ref " << g << " past arena of " << arena.size())
                .str());
      continue;
    }
    const std::uint32_t size = arena[g] >> 1;
    if (size < 2 || g + 2 + size > arena.size()) {
      r.add("circuit.arena.gate-bounds",
            (Diag() << "gate " << g << " claims " << size
                    << " inputs in an arena of " << arena.size())
                .str());
      continue;
    }
    if (((arena[g] & 1) != 0) != learnt)
      r.add("circuit.arena.learnt-flag",
            (Diag() << "gate " << g << " sits in the "
                    << (learnt ? "learnt" : "permanent")
                    << " list but its header flag disagrees")
                .str());
    for (std::uint32_t i = 0; i < size; ++i) {
      const aig::Lit l = aig::Lit::fromRaw(arena[g + 2 + i]);
      if (l.node() >= synced)
        r.add("circuit.arena.dangling-lit",
              (Diag() << "gate " << g << " input " << i
                      << " references node " << l.node() << " but only "
                      << synced << " nodes are synced")
                  .str());
    }
    // The first two literals are the watched pair.
    if (size >= 2 && g + 4 <= arena.size()) {
      expectWatch.emplace(g, 0);
    }
  }

  // Watch lists: every stored gate watched exactly twice (once per
  // watched literal's negation), and no watcher names an unknown gate.
  for (std::size_t w = 0; w < watches.size(); ++w) {
    for (const auto& watcher : watches[w]) {
      const auto it = expectWatch.find(watcher.gref);
      if (it == expectWatch.end()) {
        r.add("circuit.watch.dangling",
              (Diag() << "watch list " << w << " holds gate ref "
                      << watcher.gref << " which no gate list owns")
                  .str());
        continue;
      }
      ++it->second;
    }
  }
  for (const auto& [g, count] : expectWatch)
    if (count != 2)
      r.add("circuit.watch.missing",
            (Diag() << "gate " << g << " carries " << count
                    << " watchers instead of 2")
                .str());

  // Justification frontier: heap/index agreement, AND nodes only.
  const auto& heap = Access::circuitHeap(solver);
  const auto& heapIndex = Access::circuitHeapIndex(solver);
  const aig::Aig& a = Access::circuitAig(solver);
  for (std::size_t i = 0; i < heap.size(); ++i) {
    const aig::NodeId n = heap[i];
    if (n >= heapIndex.size() ||
        heapIndex[n] != static_cast<int>(i)) {
      r.add("circuit.frontier.heap-index",
            (Diag() << "heap slot " << i << " holds node " << n
                    << " whose index entry disagrees")
                .str());
      continue;
    }
    if (n >= a.numNodes() || !a.isAnd(n))
      r.add("circuit.frontier.non-and",
            (Diag() << "frontier holds node " << n
                    << " which is not an AND of the bound manager")
                .str());
  }

  // Fanout lists: the lists propagation walks (an in-focus node's) name
  // only in-focus parent ANDs, each under the fanin it hangs off, and
  // every in-focus AND sits once in each of its two fanins' lists.
  const auto& nextEdge = Access::circuitNextEdge(solver);
  std::vector<std::uint32_t> linked(2 * synced, 0);
  for (aig::NodeId n = 0; n < synced; ++n) {
    std::size_t steps = 0;
    for (std::uint32_t e = Access::circuitFanoutHead(solver, n);
         e != Access::kCircuitNoEdge; e = nextEdge[e]) {
      const aig::NodeId m = e >> 1;
      if (++steps > 2 * synced || e >= nextEdge.size() || m >= synced ||
          !a.isAnd(m)) {
        r.add("circuit.focus.fanout",
              (Diag() << "fanout list of node " << n << " holds edge " << e
                      << " which names no synced AND (or the list cycles)")
                  .str());
        break;
      }
      const aig::Lit fanin = (e & 1) != 0 ? a.fanin1(m) : a.fanin0(m);
      if (fanin.node() != n)
        r.add("circuit.focus.fanout",
              (Diag() << "fanout list of node " << n << " holds AND " << m
                      << " whose fanin " << (e & 1) << " is node "
                      << fanin.node())
                  .str());
      else if (!Access::circuitInFocus(solver, m))
        r.add("circuit.focus.fanout",
              (Diag() << "fanout list of node " << n
                      << " holds out-of-focus AND " << m)
                  .str());
      else
        ++linked[e];
    }
  }
  for (aig::NodeId m = 0; m < synced; ++m) {
    if (!a.isAnd(m) || !Access::circuitInFocus(solver, m)) continue;
    for (std::uint32_t slot = 0; slot < 2; ++slot)
      if (linked[2 * m + slot] != 1)
        r.add("circuit.focus.fanout",
              (Diag() << "in-focus AND " << m << " appears "
                      << linked[2 * m + slot]
                      << " times in the list of its fanin " << slot)
                  .str());
  }

  return r;
}

// ----- SweepContext ---------------------------------------------------

Report auditSweepContext(sweep::SweepContext& ctx, const aig::Aig& aig) {
  Report r;
  if (!ctx.boundTo(aig)) return r;  // unbound session: nothing to audit
  r.merge(auditCircuitSolver(ctx.circuitSolver()));
  return r;
}

// ----- selftest corruption seam ---------------------------------------

const std::vector<std::string>& selftestClasses() {
  static const std::vector<std::string> classes = {"strash", "epoch", "latch"};
  return classes;
}

bool selftestCorrupt(mc::Network& net, const std::string& cls) {
  aig::Aig& a = net.aig;
  if (cls == "strash") {
    // Flip the key of the first occupied strash slot: the entry goes
    // stale AND its node stops being findable under its true key.
    auto& slots = Access::strashSlots(Access::strash(a));
    for (auto& e : slots) {
      if (e.id == 0) continue;
      e.key ^= 0x1;
      return true;
    }
    return false;  // no AND nodes to corrupt
  }
  if (cls == "epoch") {
    // A stamp from the future: reads as already-visited after the next
    // epoch bump, silently truncating cone walks.
    auto& stamps = Access::stamps(a);
    if (stamps.empty()) return false;
    stamps[0] = Access::epoch(a) + 1;
    return true;
  }
  if (cls == "latch") {
    // Unbind a latch: its next-state literal dangles past the node array.
    if (net.next.empty()) return false;
    net.next[0] =
        aig::Lit(static_cast<aig::NodeId>(a.numNodes()) + 7, false);
    return true;
  }
  return false;
}

}  // namespace cbq::audit
