// Circuit file I/O tests: AIGER / .bench round trips must preserve
// behaviour (verdicts and step-by-step simulation), malformed inputs
// must be rejected with ParseError, and the streaming binary reader must
// survive an instance larger than its 64 KiB chunk by three orders of
// magnitude.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "circuits/io.hpp"
#include "circuits/suite.hpp"
#include "mc/engines.hpp"
#include "util/random.hpp"

namespace cbq {
namespace {

using aig::Aig;
using aig::Lit;
using circuits::ParseError;
using circuits::readAag;
using circuits::readBench;
using circuits::writeAag;
using circuits::writeBench;
using mc::Network;

/// Behavioural equivalence by random co-simulation: both networks are
/// driven with the same input sequences; bad must match at every step.
void expectSameBehaviour(const Network& a, const Network& b,
                         std::uint64_t seed) {
  ASSERT_EQ(a.numLatches(), b.numLatches());
  ASSERT_EQ(a.numInputs(), b.numInputs());
  util::Random rng(seed);
  for (int run = 0; run < 8; ++run) {
    mc::Trace trace;
    for (int t = 0; t < 12; ++t) {
      std::unordered_map<aig::VarId, bool> inA;
      for (const aig::VarId v : a.inputVars) inA.emplace(v, rng.flip());
      trace.inputs.push_back(inA);
    }
    // Map trace input order from a's vars to b's vars positionally.
    mc::Trace traceB;
    for (const auto& stepA : trace.inputs) {
      std::unordered_map<aig::VarId, bool> stepB;
      for (std::size_t i = 0; i < a.inputVars.size(); ++i)
        stepB.emplace(b.inputVars[i], stepA.at(a.inputVars[i]));
      traceB.inputs.push_back(stepB);
    }
    for (std::size_t len = 1; len <= trace.inputs.size(); ++len) {
      mc::Trace ta;
      mc::Trace tb;
      ta.inputs.assign(trace.inputs.begin(),
                       trace.inputs.begin() + static_cast<std::ptrdiff_t>(len));
      tb.inputs.assign(traceB.inputs.begin(),
                       traceB.inputs.begin() + static_cast<std::ptrdiff_t>(len));
      ASSERT_EQ(mc::replayHitsBad(a, ta), mc::replayHitsBad(b, tb))
          << "run " << run << " len " << len;
    }
  }
}

class IoRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IoRoundTrip, AagPreservesBehaviour) {
  auto suite = circuits::standardSuite();
  ASSERT_LT(GetParam(), suite.size());
  const Network& net = suite[GetParam()].net;
  std::stringstream ss;
  writeAag(net, ss);
  const Network back = readAag(ss, net.name + "-rt");
  expectSameBehaviour(net, back, 1000 + GetParam());
}

TEST_P(IoRoundTrip, BenchPreservesBehaviour) {
  auto suite = circuits::standardSuite();
  ASSERT_LT(GetParam(), suite.size());
  const Network& net = suite[GetParam()].net;
  std::stringstream ss;
  writeBench(net, ss);
  const Network back = readBench(ss, net.name + "-rt");
  expectSameBehaviour(net, back, 2000 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(SuiteInstances, IoRoundTrip,
                         ::testing::Range<std::size_t>(0, 32));

TEST_P(IoRoundTrip, AigBinaryPreservesBehaviour) {
  auto suite = circuits::standardSuite();
  ASSERT_LT(GetParam(), suite.size());
  const Network& net = suite[GetParam()].net;
  std::stringstream ss;
  circuits::writeAigBinary(net, ss);
  const Network back = circuits::readAigBinary(ss, net.name + "-bin");
  expectSameBehaviour(net, back, 3000 + GetParam());
}

TEST(Io, AigBinaryDeltaEncodingRoundTrip) {
  // A wide circuit forces multi-byte varint deltas.
  const auto inst = circuits::makeInstance("gray", 8, true);
  std::stringstream ss;
  circuits::writeAigBinary(inst.net, ss);
  const Network back = circuits::readAigBinary(ss);
  EXPECT_EQ(back.numLatches(), inst.net.numLatches());
  EXPECT_EQ(back.numInputs(), inst.net.numInputs());
  mc::CircuitQuantReach engine;
  EXPECT_EQ(engine.check(back).verdict, mc::Verdict::Safe);
}

TEST(Io, AigBinaryRejectsGarbage) {
  {
    std::stringstream ss("aig 3 1 1 1 2\n");  // M != I+L+A
    EXPECT_THROW(circuits::readAigBinary(ss), ParseError);
  }
  {
    std::stringstream ss("aag 1 1 0 0 0\n");  // wrong magic for binary
    EXPECT_THROW(circuits::readAigBinary(ss), ParseError);
  }
  {
    // Header promises one AND gate but the byte stream ends.
    std::stringstream ss("aig 2 1 0 1 1\n4\n");
    EXPECT_THROW(circuits::readAigBinary(ss), ParseError);
  }
}

TEST(Io, AagRoundTripPreservesVerdict) {
  for (const bool safe : {true, false}) {
    const auto inst = circuits::makeInstance("ring", 4, safe);
    std::stringstream ss;
    writeAag(inst.net, ss);
    const Network back = readAag(ss);
    mc::CircuitQuantReach engine;
    EXPECT_EQ(engine.check(back).verdict, inst.expected);
  }
}

TEST(Io, BenchRoundTripPreservesVerdictWithInitOne) {
  // The token ring has an init-1 latch — exercises the `# init` extension.
  for (const bool safe : {true, false}) {
    const auto inst = circuits::makeInstance("ring", 4, safe);
    std::stringstream ss;
    writeBench(inst.net, ss);
    EXPECT_NE(ss.str().find("# init l0 = 1"), std::string::npos);
    const Network back = readBench(ss);
    mc::Bmc engine;
    const auto expected = inst.expected == mc::Verdict::Unsafe
                              ? mc::Verdict::Unsafe
                              : mc::Verdict::Unknown;  // BMC can't prove safe
    EXPECT_EQ(engine.check(back).verdict, expected);
  }
}

TEST(Io, HandWrittenAag) {
  // A 1-latch toggle: latch next = !latch, output = latch.
  std::stringstream ss("aag 1 0 1 1 0\n2 3\n2\n");
  const Network net = readAag(ss);
  EXPECT_EQ(net.numLatches(), 1u);
  EXPECT_EQ(net.numInputs(), 0u);
  // bad = latch, init 0: safe at step 1, bad at step 2.
  mc::Trace t;
  t.inputs.resize(1);
  EXPECT_FALSE(mc::replayHitsBad(net, t));
  t.inputs.resize(2);
  EXPECT_TRUE(mc::replayHitsBad(net, t));
}

TEST(Io, Aag19BadSectionSymbolsAndComments) {
  // The toggle latch again, phrased AIGER-1.9 style: the property is a
  // `b` (bad) literal instead of an output, followed by a symbol table
  // and a comment section — all of which the reader must accept.
  std::stringstream ss(
      "aag 1 0 1 0 0 1\n"
      "2 3 0\n"
      "2\n"
      "l0 toggle\n"
      "b0 latch_high\n"
      "c\n"
      "hand-written 1.9 example\n");
  const Network net = readAag(ss);
  EXPECT_EQ(net.numLatches(), 1u);
  mc::Trace t;
  t.inputs.resize(1);
  EXPECT_FALSE(mc::replayHitsBad(net, t));
  t.inputs.resize(2);
  EXPECT_TRUE(mc::replayHitsBad(net, t));
}

TEST(Io, Aag19OutputsAndBadsMerge) {
  // One output (latch 0) and one bad literal (latch 1): the checker ORs
  // both into `bad`, so either latch going high is a violation.
  std::stringstream ss(
      "aag 2 0 2 1 0 1\n"
      "2 3\n"  // toggle
      "4 4\n"  // constant latch, init 0
      "4\n"    // output: second latch (never high -> not the bug)
      "2\n"    // bad: toggle latch (high at step 2)
      "c\n");
  const Network net = readAag(ss);
  mc::Trace t;
  t.inputs.resize(2);
  EXPECT_TRUE(mc::replayHitsBad(net, t));
}

TEST(Io, AagNoOutputsNoAndsStillParsesTrailingSections) {
  // With no outputs/bads and no AND gates, the numeric part ends on a
  // getline-consumed latch line; the symbol/comment scan must not
  // swallow (or trip over) the first trailing line.
  {
    std::stringstream ss("aag 1 0 1 0 0\n2 3\nc\nfree text\n");
    const Network net = readAag(ss);
    EXPECT_EQ(net.numLatches(), 1u);
    EXPECT_EQ(net.bad, aig::kFalse);  // no property
  }
  {
    std::stringstream ss("aag 1 0 1 0 0\n2 3\nl0 toggle\n");
    const Network net = readAag(ss);
    EXPECT_EQ(net.numLatches(), 1u);
  }
  {
    // The first trailing line is validated, not skipped.
    std::stringstream ss("aag 1 0 1 0 0\n2 3\nl7 out_of_range\n");
    EXPECT_THROW(readAag(ss), ParseError);
  }
}

TEST(Io, Aag19UnsupportedSectionsAreParseErrors) {
  {
    // One invariant constraint: silently ignoring it would flip verdicts.
    std::stringstream ss("aag 1 0 1 0 0 0 1\n2 3\n2\n");
    EXPECT_THROW(readAag(ss), ParseError);
  }
  {
    // Justice property.
    std::stringstream ss("aag 1 0 1 0 0 0 0 1\n2 3\n2\n");
    EXPECT_THROW(readAag(ss), ParseError);
  }
  {
    // Uninitialized latch (reset value = its own literal).
    std::stringstream ss("aag 1 0 1 1 0\n2 3 2\n2\n");
    EXPECT_THROW(readAag(ss), ParseError);
  }
  {
    // Malformed symbol table entry.
    std::stringstream ss("aag 1 0 1 1 0\n2 3\n2\nx0 what\n");
    EXPECT_THROW(readAag(ss), ParseError);
  }
  {
    // Symbol index out of range.
    std::stringstream ss("aag 1 0 1 1 0\n2 3\n2\nl7 nope\n");
    EXPECT_THROW(readAag(ss), ParseError);
  }
}

TEST(Io, HandWrittenBench) {
  std::stringstream ss(R"(# toy
INPUT(a)
INPUT(b)
OUTPUT(o)
x = AND(a, b)
y = NOT(x)
q = DFF(y)
o = AND(q, a)
)");
  const Network net = readBench(ss);
  EXPECT_EQ(net.numInputs(), 2u);
  EXPECT_EQ(net.numLatches(), 1u);
  EXPECT_FALSE(net.bad.isConstant());
}

TEST(Io, BenchGateZoo) {
  std::stringstream ss(R"(
INPUT(a)
INPUT(b)
OUTPUT(o)
g1 = NAND(a, b)
g2 = NOR(a, b)
g3 = XOR(a, b)
g4 = XNOR(a, b)
g5 = BUF(g3)
g6 = OR(g1, g2, g4)
o = AND(g5, g6)
)");
  const Network net = readBench(ss);
  // o = (a^b) & (nand | nor | xnor) = (a^b) & 1 = a^b.
  std::unordered_map<aig::VarId, bool> a01{{net.inputVars[0], false},
                                           {net.inputVars[1], true}};
  EXPECT_TRUE(net.aig.evaluate(net.bad, a01));
  std::unordered_map<aig::VarId, bool> a11{{net.inputVars[0], true},
                                           {net.inputVars[1], true}};
  EXPECT_FALSE(net.aig.evaluate(net.bad, a11));
}

TEST(Io, BenchOutOfOrderDefinitionsResolve) {
  std::stringstream ss(R"(
INPUT(a)
OUTPUT(o)
o = AND(x, a)
x = NOT(a)
)");
  const Network net = readBench(ss);
  EXPECT_TRUE(net.bad.isConstant());  // a & !a folds to 0
}

TEST(Io, ParseErrors) {
  {
    std::stringstream ss("aig 1 0 0 0 0\n");
    EXPECT_THROW(readAag(ss), ParseError);
  }
  {
    std::stringstream ss("aag 1 1 0 0 0\n3\n");  // odd input literal
    EXPECT_THROW(readAag(ss), ParseError);
  }
  {
    // Literal 0 is the constant; an input claiming it would corrupt
    // every constant literal in the file (here: flip a trivially-SAFE
    // constant-false output into a free variable).
    std::stringstream ss("aag 1 1 0 1 0\n0\n0\n");
    EXPECT_THROW(readAag(ss), ParseError);
  }
  {
    std::stringstream ss("aag 1 0 1 0 0\n0 3\n");  // latch literal 0
    EXPECT_THROW(readAag(ss), ParseError);
  }
  {
    std::stringstream ss("INPUT(a)\nOUTPUT(o)\no = FROB(a)\n");
    EXPECT_THROW(readBench(ss), ParseError);
  }
  {
    std::stringstream ss("OUTPUT(o)\no = AND(o, o)\n");  // cyclic
    EXPECT_THROW(readBench(ss), ParseError);
  }
  {
    std::stringstream ss("INPUT(a)\nOUTPUT(missing)\n");
    EXPECT_THROW(readBench(ss), ParseError);
  }
  EXPECT_THROW(circuits::readCircuitFile("/nonexistent/file.aag"),
               ParseError);
  EXPECT_THROW(circuits::readCircuitFile("/tmp/whatever.xyz"), ParseError);
}

TEST(Io, ParseErrorsReportTheOffendingLine) {
  auto messageOf = [](auto&& parse) -> std::string {
    try {
      parse();
    } catch (const ParseError& e) {
      return e.what();
    }
    return "(no error)";
  };

  {
    // Latch definition on line 3 is malformed.
    std::stringstream ss("aag 3 1 1 1 0\n2\nnot a latch\n2\n");
    const std::string msg = messageOf([&] { readAag(ss); });
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
  {
    // AND definition on line 5 is malformed.
    std::stringstream ss("aag 3 1 1 1 1\n2\n4 4\n2\nbroken\n");
    const std::string msg = messageOf([&] { readAag(ss); });
    EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
  }
  {
    // Input literal on line 2 is odd.
    std::stringstream ss("aag 1 1 0 0 0\n3\n");
    const std::string msg = messageOf([&] { readAag(ss); });
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  }
  {
    // File truncated: the missing latch line is reported where it was
    // expected.
    std::stringstream ss("aag 2 1 1 0 0\n2\n");
    const std::string msg = messageOf([&] { readAag(ss); });
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
  {
    // Unknown .bench gate type on line 3.
    std::stringstream ss("INPUT(a)\nOUTPUT(o)\no = FROB(a)\n");
    const std::string msg = messageOf([&] { readBench(ss); });
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  }
  {
    // Undefined .bench output named on line 2.
    std::stringstream ss("INPUT(a)\nOUTPUT(missing)\n");
    const std::string msg = messageOf([&] { readBench(ss); });
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  }
  {
    // readCircuitFile prefixes the file path to the line diagnostic.
    const std::string path =
        ::testing::TempDir() + "/cbq_io_lineno_test.aag";
    std::ofstream out(path);
    out << "aag 1 1 0 0 0\nnonsense\n";
    out.close();
    const std::string msg =
        messageOf([&] { circuits::readCircuitFile(path); });
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------- streaming reader --

/// Binary write -> chunked read, refereed by evaluating bad and every
/// next-state function on random assignments (input/state variables
/// mapped positionally — the reader renumbers and its construction rules
/// may restructure the AIG, so only behaviour is comparable). Returns the
/// encoded size so callers can assert the stream crossed chunk bounds.
std::size_t binaryRoundTripBytes(const Network& net, std::uint64_t seed,
                                 int runs) {
  std::ostringstream os;
  circuits::writeAigBinary(net, os);
  const std::string bytes = os.str();
  std::istringstream in(bytes);
  const Network back = circuits::readAigBinary(in);
  EXPECT_EQ(back.numLatches(), net.numLatches());
  EXPECT_EQ(back.numInputs(), net.numInputs());
  util::Random rng(seed);
  for (int run = 0; run < runs; ++run) {
    std::unordered_map<aig::VarId, bool> a;
    std::unordered_map<aig::VarId, bool> b;
    for (std::size_t i = 0; i < net.inputVars.size(); ++i) {
      const bool bit = rng.flip();
      a.emplace(net.inputVars[i], bit);
      b.emplace(back.inputVars[i], bit);
    }
    for (std::size_t i = 0; i < net.stateVars.size(); ++i) {
      const bool bit = rng.flip();
      a.emplace(net.stateVars[i], bit);
      b.emplace(back.stateVars[i], bit);
    }
    EXPECT_EQ(net.aig.evaluate(net.bad, a), back.aig.evaluate(back.bad, b));
    for (std::size_t j = 0; j < net.next.size(); ++j)
      EXPECT_EQ(net.aig.evaluate(net.next[j], a),
                back.aig.evaluate(back.next[j], b))
          << "latch " << j;
  }
  return bytes.size();
}

TEST(StreamingReader, RoundTripsTheGeneratedFamilies) {
  std::uint64_t seed = 1000;
  for (const auto& inst : circuits::standardSuite()) {
    const std::size_t bytes = binaryRoundTripBytes(inst.net, ++seed, 4);
    EXPECT_GT(bytes, 0u) << inst.family;
  }
}

TEST(StreamingReader, RoundTripsAnInstanceLargerThanAnyChunk) {
  // A pure AND chain: each step hashes to a fresh node, the deltas stay
  // small, and the binary file comfortably exceeds 64 MiB — thousands of
  // refills of the reader's 64 KiB chunk.
  mc::NetworkBuilder b("huge");
  const Lit latch = b.addLatch(false);
  Aig& g = b.aig();
  constexpr int kInputs = 64;
  std::vector<Lit> pis;
  for (int i = 0; i < kInputs; ++i) pis.push_back(b.addInput());
  Lit acc = pis[0];
  constexpr std::size_t kAnds = 15'000'000;
  for (std::size_t i = 0; i < kAnds; ++i)
    acc = g.mkAnd(acc, pis[(i * 7 + 3) % kInputs] ^ ((i & 1) != 0));
  b.setNext(0, acc);
  b.setBad(g.mkAnd(latch, acc));
  const Network net = b.finish();
  ASSERT_GE(net.aig.numAnds(), kAnds);

  const std::size_t bytes = binaryRoundTripBytes(net, 9001, 2);
  EXPECT_GT(bytes, 64u * 1024u * 1024u);
}

}  // namespace
}  // namespace cbq
