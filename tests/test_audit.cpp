// Deep-invariant auditor: clean passes over healthy structures and one
// corruption-injection test per violation class, asserting the auditor
// reports the NAMED invariant (Report::has) with a nonempty diagnostic —
// not merely "something failed".

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "circuits/suite.hpp"
#include "cnf/aig_cnf.hpp"
#include "mc/network.hpp"
#include "sat/solver.hpp"
#include "sweep/signatures.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

using aig::Aig;
using aig::Lit;
using audit::Access;

/// A small manager with a few levels of AND structure.
Aig smallAig() {
  Aig g;
  const Lit a = g.pi(0), b = g.pi(1), c = g.pi(2);
  const Lit ab = g.mkAnd(a, b);
  const Lit out = g.mkOr(g.mkAnd(ab, c), g.mkXor(a, c));
  (void)out;
  return g;
}

/// A 2-latch network whose bad cone touches state and input variables.
mc::Network smallNet() {
  mc::NetworkBuilder nb("audit-test");
  const Lit l0 = nb.addLatch(false);
  const Lit l1 = nb.addLatch(true);
  const Lit in = nb.addInput();
  nb.setNext(0, nb.aig().mkXor(l0, in));
  nb.setNext(1, nb.aig().mkAnd(l1, !l0));
  nb.setBad(nb.aig().mkAnd(l0, l1));
  return nb.finish();
}

// ----- clean passes ---------------------------------------------------

TEST(Audit, CleanOverStandardSuite) {
  for (const auto& inst : circuits::standardSuite()) {
    const audit::Report r = audit::auditNetwork(inst.net);
    EXPECT_TRUE(r.ok()) << inst.net.name << ": " << r.summary();
  }
}

TEST(Audit, CleanAfterFunctionalOps) {
  Aig g = smallAig();
  const Lit f = g.mkAnd(g.pi(0), g.pi(1));
  (void)g.cofactor(f, 0, true);
  (void)g.compose(f, {{1, g.pi(2)}});
  Aig fresh;
  const Lit roots[] = {f};
  (void)fresh.transferFrom(g, roots);
  EXPECT_TRUE(audit::auditAig(g).ok()) << audit::auditAig(g).summary();
  EXPECT_TRUE(audit::auditAig(fresh).ok());
}

TEST(Audit, CleanCnfAfterEncoding) {
  Aig g = smallAig();
  sat::Solver solver;
  cnf::AigCnf cnf(g, solver);
  (void)cnf.litFor(g.mkAnd(g.pi(0), g.pi(2)));
  (void)cnf.litFor(!g.mkOr(g.pi(1), g.pi(2)));
  const audit::Report r = audit::auditCnf(cnf);
  EXPECT_TRUE(r.ok()) << r.summary();
}

// ----- violation class: stale strash entry ----------------------------

TEST(Audit, StaleStrashEntryCaught) {
  Aig g = smallAig();
  auto& slots = Access::strashSlots(Access::strash(g));
  bool corrupted = false;
  for (auto& e : slots) {
    if (e.id == 0) continue;
    e.key ^= 0x1;  // entry no longer matches its node's fanins
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted);
  const audit::Report r = audit::auditAig(g);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.has("aig.strash.stale-entry")) << r.summary();
  // The node behind the corrupted slot is also unreachable under its key.
  EXPECT_TRUE(r.has("aig.strash.missing-node")) << r.summary();
  EXPECT_FALSE(r.violations().front().detail.empty());
}

// ----- violation class: broken epoch stamp ----------------------------

TEST(Audit, EpochStampAheadCaught) {
  Aig g = smallAig();
  Access::stamps(g)[1] = Access::epoch(g) + 1;  // stamp from the future
  const audit::Report r = audit::auditAig(g);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.has("aig.epoch.stamp-ahead")) << r.summary();
}

// ----- violation class: structural node corruption --------------------

TEST(Audit, NodeLevelAndFaninOrderCaught) {
  Aig g = smallAig();
  auto& nodes = Access::nodes(g);
  // Find an AND node and break its level, then its fanin order.
  aig::NodeId target = 0;
  for (aig::NodeId n = 1; n < nodes.size(); ++n)
    if (g.isAnd(n)) {
      target = n;
      break;
    }
  ASSERT_NE(target, 0u);
  nodes[target].level += 7;
  EXPECT_TRUE(audit::auditAig(g).has("aig.node.level"));
  nodes[target].level -= 7;
  std::swap(nodes[target].fanin0, nodes[target].fanin1);
  EXPECT_TRUE(audit::auditAig(g).has("aig.node.fanin-order"));
}

// ----- violation class: merge onto a later node -----------------------

TEST(Audit, ForwardMergeTargetCaught) {
  Aig g = smallAig();
  const Lit a = g.pi(0), b = g.pi(1), c = g.pi(2);
  const Lit root = g.mkAnd(g.mkAnd(a, b), g.mkAnd(b, c));
  const Lit roots[] = {root};
  const auto order = g.coneAnds(roots);
  ASSERT_EQ(order.size(), 3u);

  // Constants, PIs and earlier nodes are legal targets.
  aig::NodeMap merges;
  merges.set(order[0], aig::kFalse);
  merges.set(order[1], a);
  merges.set(order[2], !Lit(order[0], false));
  EXPECT_TRUE(audit::auditMergeOrder(g, order, merges).ok())
      << audit::auditMergeOrder(g, order, merges).summary();

  // order[0] merged onto a later node: the rebuild map now has a cycle.
  merges.set(order[0], Lit(order[1], false));
  const audit::Report r = audit::auditMergeOrder(g, order, merges);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.has("sweep.merge.order")) << r.summary();
}

// ----- violation class: dangling CNF literal --------------------------

TEST(Audit, DanglingCnfLiteralCaught) {
  Aig g = smallAig();
  sat::Solver solver;
  cnf::AigCnf cnf(g, solver);
  (void)cnf.litFor(g.mkAnd(g.pi(0), g.pi(1)));
  auto& vars = Access::nodeVars(const_cast<cnf::AigCnf&>(cnf));
  aig::NodeId mapped = 0;
  for (aig::NodeId n = 1; n < vars.size(); ++n)
    if (vars[n] != sat::kUndefVar) {
      mapped = n;
      break;
    }
  ASSERT_NE(mapped, 0u);
  const sat::Var orig = vars[mapped];
  vars[mapped] = solver.numVars() + 100;  // beyond the live solver vars
  EXPECT_TRUE(audit::auditCnf(cnf).has("cnf.litmap.dangling-var"));
  vars[mapped] = orig;

  // Two nodes sharing one solver variable.
  aig::NodeId second = 0;
  for (aig::NodeId n = mapped + 1; n < vars.size(); ++n)
    if (vars[n] != sat::kUndefVar) {
      second = n;
      break;
    }
  ASSERT_NE(second, 0u);
  const sat::Var origSecond = vars[second];
  vars[second] = orig;
  EXPECT_TRUE(audit::auditCnf(cnf).has("cnf.litmap.duplicate-var"));
  vars[second] = origSecond;

  // Un-mapping an encoded AND desynchronizes the encoded counter.
  aig::NodeId andNode = 0;
  for (aig::NodeId n = 1; n < vars.size(); ++n)
    if (vars[n] != sat::kUndefVar && g.isAnd(n)) {
      andNode = n;
      break;
    }
  ASSERT_NE(andNode, 0u);
  vars[andNode] = sat::kUndefVar;
  EXPECT_TRUE(audit::auditCnf(cnf).has("cnf.litmap.encoded-count"));
}

// ----- violation class: unbound latch ---------------------------------

TEST(Audit, UnboundLatchCaught) {
  mc::Network net = smallNet();
  ASSERT_TRUE(audit::auditNetwork(net).ok());
  net.next[0] =
      Lit(static_cast<aig::NodeId>(net.aig.numNodes()) + 3, false);
  const audit::Report r = audit::auditNetwork(net);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.has("net.latch.dangling-next")) << r.summary();
}

TEST(Audit, NetworkShapeAndSupportViolationsCaught) {
  {
    mc::Network net = smallNet();
    net.next.pop_back();  // latch with no next-state function
    EXPECT_TRUE(audit::auditNetwork(net).has("net.shape.next-size"));
  }
  {
    mc::Network net = smallNet();
    net.init.push_back(true);
    EXPECT_TRUE(audit::auditNetwork(net).has("net.shape.init-size"));
  }
  {
    mc::Network net = smallNet();
    net.inputVars.push_back(net.stateVars[0]);  // var in both roles
    EXPECT_TRUE(audit::auditNetwork(net).has("net.vars.duplicate"));
  }
  {
    mc::Network net = smallNet();
    net.bad = net.aig.pi(40);  // cone depends on an undeclared variable
    EXPECT_TRUE(audit::auditNetwork(net).has("net.support.undeclared-var"));
  }
}

// ----- violation class: signature slot corruption ---------------------

TEST(Audit, SignatureSlotViolationsCaught) {
  Aig g = smallAig();
  const Lit root = g.mkAnd(g.mkAnd(g.pi(0), g.pi(1)), g.pi(2));
  const Lit roots[] = {root};
  const auto order = g.coneAnds(roots);
  const auto support = g.supportVars(roots);
  util::Random rng(7);
  sweep::Signatures sigs(g, order, support, rng, 2, 4);
  ASSERT_TRUE(audit::auditSignatures(sigs).ok())
      << audit::auditSignatures(sigs).summary();

  auto& slotOf = Access::slotOf(sigs);
  const auto origSlot = slotOf[order[0]];
  slotOf[order[0]] = 100000;  // row far beyond the arena
  EXPECT_TRUE(audit::auditSignatures(sigs).has("sig.slot.out-of-range"));
  slotOf[order[0]] = origSlot;

  ASSERT_GE(order.size(), 2u);
  slotOf[order[1]] = slotOf[order[0]];  // two nodes aliasing one row
  EXPECT_TRUE(audit::auditSignatures(sigs).has("sig.slot.duplicate"));
}

TEST(Audit, ExhaustivePatternViolationsCaught) {
  // Eight inputs: an exhaustive arena of 4 words per slot. Its PI rows
  // must stay the enumeration across a relayout onto a cone built after
  // construction; a flipped bit in one PI row must be reported.
  Aig g;
  std::vector<Lit> xs;
  for (aig::VarId v = 0; v < 8; ++v) xs.push_back(g.pi(v));
  const Lit root = g.mkXor(g.mkAndAll(xs), g.mkOr(xs[0], xs[7]));
  const Lit roots[] = {root};
  const auto support = g.supportVars(roots);
  util::Random rng(7);
  sweep::Signatures sigs(g, g.coneAnds(roots), support, rng, 2, 4);
  ASSERT_TRUE(sigs.exhaustive());
  ASSERT_EQ(sigs.words(), 4u);
  ASSERT_TRUE(audit::auditSignatures(sigs).ok())
      << audit::auditSignatures(sigs).summary();

  const Lit h = g.mkAnd(root, g.mkXor(xs[2], xs[5]));
  const Lit hRoots[] = {h};
  sigs.relayout(g.coneAnds(hRoots));
  ASSERT_TRUE(sigs.exhaustive());
  ASSERT_TRUE(audit::auditSignatures(sigs).ok())
      << audit::auditSignatures(sigs).summary();

  auto& arena = Access::arena(sigs);
  const auto slot = Access::slotOf(sigs)[g.piNodeOf(support[6])];
  arena[slot * sigs.stride() + 3] ^= std::uint64_t{1} << 9;
  EXPECT_TRUE(audit::auditSignatures(sigs).has("sig.exhaustive.pattern"));
  arena[slot * sigs.stride() + 3] ^= std::uint64_t{1} << 9;
  EXPECT_TRUE(audit::auditSignatures(sigs).ok());
  const auto slot0 = Access::slotOf(sigs)[g.piNodeOf(support[0])];
  arena[slot0 * sigs.stride()] = ~arena[slot0 * sigs.stride()];
  EXPECT_TRUE(audit::auditSignatures(sigs).has("sig.exhaustive.pattern"));
}

// ----- machinery ------------------------------------------------------

TEST(Audit, SelftestSeedsEveryClassWithNamedInvariant) {
  const struct {
    const char* cls;
    const char* invariant;
  } expected[] = {
      {"strash", "aig.strash.stale-entry"},
      {"epoch", "aig.epoch.stamp-ahead"},
      {"latch", "net.latch.dangling-next"},
  };
  ASSERT_EQ(audit::selftestClasses().size(),
            sizeof(expected) / sizeof(expected[0]));
  for (const auto& [cls, invariant] : expected) {
    mc::Network net = smallNet();
    ASSERT_TRUE(audit::selftestCorrupt(net, cls)) << cls;
    const audit::Report r = audit::auditNetwork(net);
    ASSERT_FALSE(r.ok()) << cls;
    EXPECT_TRUE(r.has(invariant))
        << cls << " reported instead: " << r.summary();
  }
  mc::Network net = smallNet();
  EXPECT_FALSE(audit::selftestCorrupt(net, "no-such-class"));
  EXPECT_TRUE(audit::auditNetwork(net).ok());  // unknown class = untouched
}

TEST(Audit, RequireThrowsNamedAuditError) {
  audit::Report clean;
  EXPECT_NO_THROW(audit::require(std::move(clean), "test.site"));

  audit::Report bad;
  bad.add("test.invariant", "synthetic");
  try {
    audit::require(std::move(bad), "test.site");
    FAIL() << "require() did not throw";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.where(), "test.site");
    EXPECT_TRUE(e.report().has("test.invariant"));
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("audit violation at test.site", 0), 0u) << what;
    // AuditError is a logic_error: violated invariants are program bugs.
    EXPECT_NE(dynamic_cast<const std::logic_error*>(&e), nullptr);
  }
}

TEST(Audit, ArmedFlagRoundTrip) {
  EXPECT_FALSE(audit::armed());  // default: disarmed
  audit::setArmed(true);
  EXPECT_TRUE(audit::armed());
  audit::setArmed(false);
  EXPECT_FALSE(audit::armed());
}

TEST(Audit, ReportSummaryCapsItems) {
  audit::Report r;
  for (int i = 0; i < 6; ++i)
    r.add("inv." + std::to_string(i), "detail");
  const std::string s = r.summary(4);
  EXPECT_NE(s.find("inv.0"), std::string::npos);
  EXPECT_NE(s.find("(+2 more)"), std::string::npos) << s;
}

}  // namespace
}  // namespace cbq
