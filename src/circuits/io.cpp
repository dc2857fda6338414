#include "circuits/io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/fault.hpp"

namespace cbq::circuits {

namespace {

using aig::Lit;
using aig::VarId;
using mc::Network;

/// Line-counting reader: every parse error reports the offending line
/// number, so a malformed 10k-line benchmark file is a one-look fix
/// instead of a binary search.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  /// Reads the next line; false at EOF.
  bool next(std::string& line) {
    if (!std::getline(in_, line)) return false;
    ++lineNo_;
    return true;
  }

  /// Reads the next line or fails with `what` at the line AFTER the last
  /// one read (the place the missing line was expected).
  std::string expect(const char* what) {
    std::string line;
    if (!next(line))
      throw ParseError("line " + std::to_string(lineNo_ + 1) +
                       ": unexpected end of file, expected " + what);
    return line;
  }

  [[nodiscard]] std::size_t lineNo() const { return lineNo_; }

  [[noreturn]] void fail(const std::string& msg) const { failAt(lineNo_, msg); }

  [[noreturn]] static void failAt(std::size_t lineNo, const std::string& msg) {
    throw ParseError("line " + std::to_string(lineNo) + ": " + msg);
  }

 private:
  std::istream& in_;
  std::size_t lineNo_ = 0;
};

// ----- AIGER ASCII ----------------------------------------------------------

struct AagAnd {
  unsigned lhs, rhs0, rhs1;
  std::size_t lineNo;  ///< where the gate was defined, for error reports
};

/// Hard ceiling on header-declared counts (variables, inputs, gates...).
/// A corrupt or hostile header must never size an allocation: 2^26
/// variables is far beyond the largest benchmark family while keeping
/// the worst-case working-set of the M-indexed tables a few hundred MB
/// instead of "whatever 10 digits of ASCII ask for".
constexpr unsigned kMaxHeaderCount = 1u << 26;

/// Reserve hint for section vectors read entry-by-entry: trust the
/// header only up to a modest prefix, then let growth track the bytes
/// actually present in the file.
constexpr std::size_t kReserveCap = 1u << 16;

}  // namespace

mc::Network readAag(std::istream& in, std::string name) {
  LineReader reader(in);

  // AIGER 1.9 header: `aag M I L O A [B [C [J [F]]]]`. Bad literals are
  // property outputs like O (both are OR-ed into `bad`); invariant
  // constraints and justice/fairness are liveness-flavoured machinery the
  // invariant checker cannot honour soundly, so their presence is a parse
  // error rather than a silently wrong verdict.
  unsigned m = 0;
  unsigned i = 0;
  unsigned l = 0;
  unsigned o = 0;
  unsigned a = 0;
  unsigned b = 0;
  unsigned c = 0;
  unsigned j = 0;
  unsigned f = 0;
  {
    std::istringstream hs(reader.expect("AIGER header"));
    std::string magic;
    if (!(hs >> magic >> m >> i >> l >> o >> a) || magic != "aag")
      reader.fail("not an ascii AIGER header (aag M I L O A)");
    hs >> b >> c >> j >> f;  // absent 1.9 fields stay 0
    if (c > 0) reader.fail("invariant constraints unsupported");
    if (j > 0 || f > 0) reader.fail("justice/fairness properties unsupported");
    // Counts gate every allocation below; refuse implausible ones before
    // a corrupt 10-digit field turns into a multi-gigabyte vector.
    if (m > kMaxHeaderCount || i > kMaxHeaderCount || l > kMaxHeaderCount ||
        o > kMaxHeaderCount || a > kMaxHeaderCount || b > kMaxHeaderCount)
      reader.fail("implausible header count (limit 2^26)");
    // M is the maximum variable index: every input, latch and AND claims
    // a distinct variable, so fewer than I+L+A indices cannot hold them.
    if (static_cast<std::uint64_t>(i) + l + a > m)
      reader.fail("inconsistent header: M < I + L + A");
  }

  Network net;
  net.name = std::move(name);

  // Section vectors grow entry-by-entry: each entry is backed by a line
  // actually read (EOF throws), so memory tracks the real file size, not
  // whatever the header claims.
  std::vector<unsigned> inputLits;
  inputLits.reserve(std::min<std::size_t>(i, kReserveCap));
  for (unsigned k = 0; k < i; ++k) {
    std::istringstream ls(reader.expect("an input literal"));
    unsigned x = 0;
    if (!(ls >> x)) reader.fail("bad input line");
    inputLits.push_back(x);
  }

  struct LatchDef {
    unsigned lit, next;
    bool init;
    std::size_t lineNo;
  };
  std::vector<LatchDef> latches;
  latches.reserve(std::min<std::size_t>(l, kReserveCap));
  for (unsigned k = 0; k < l; ++k) {
    std::istringstream ls(reader.expect("a latch definition"));
    LatchDef ld;
    ld.init = false;
    ld.lineNo = reader.lineNo();
    unsigned init = 0;
    if (!(ls >> ld.lit >> ld.next)) reader.fail("bad latch line");
    if (ls >> init) {
      // 1.9 reset values: 0, 1, or the latch's own literal meaning
      // "uninitialized" — a 3-valued start state we cannot model.
      if (init == ld.lit)
        reader.fail("uninitialized latch resets unsupported");
      if (init > 1) reader.fail("bad latch reset value");
      ld.init = (init != 0);
    }
    latches.push_back(ld);
  }

  // Outputs, then the 1.9 bad-literal section; both name states the
  // checker must prove unreachable, so they merge into one `bad`.
  struct OutputDef {
    unsigned lit;
    std::size_t lineNo;
  };
  std::vector<OutputDef> outputs;
  outputs.reserve(std::min<std::size_t>(o + b, kReserveCap));
  for (unsigned k = 0; k < o + b; ++k) {
    std::istringstream ls(reader.expect("an output literal"));
    OutputDef od;
    od.lineNo = reader.lineNo();
    if (!(ls >> od.lit)) reader.fail("bad output line");
    outputs.push_back(od);
  }
  std::vector<AagAnd> ands;
  ands.reserve(std::min<std::size_t>(a, kReserveCap));
  for (unsigned k = 0; k < a; ++k) {
    std::istringstream ls(reader.expect("an AND definition"));
    AagAnd g;
    g.lineNo = reader.lineNo();
    if (!(ls >> g.lhs >> g.rhs0 >> g.rhs1)) reader.fail("bad AND line");
    ands.push_back(g);
  }

  // Symbol table (`i<k> name` / `l<k> name` / `o<k> name` / `b<k> name`
  // lines) and the free-text comment section after a lone `c`. Symbols
  // map positions, not literals, so they carry no structure the Network
  // does not already have — they are validated and skipped.
  {
    std::string line;
    while (reader.next(line)) {
      if (line.empty()) continue;
      if (line[0] == 'c') break;  // comment section: rest is free text
      const char kind = line[0];
      unsigned idx = 0;
      std::string sym;
      std::istringstream ss(line.substr(1));
      if ((kind != 'i' && kind != 'l' && kind != 'o' && kind != 'b') ||
          !(ss >> idx >> sym))
        reader.fail("bad symbol table line: " + line);
      const unsigned count = kind == 'i' ? i
                             : kind == 'l' ? l
                             : kind == 'o' ? o
                                           : b;
      if (idx >= count) reader.fail("symbol index out of range: " + line);
    }
  }

  // Variable kind table.
  enum class Kind : std::uint8_t { Undefined, Input, Latch, And };
  std::vector<Kind> kind(m + 1, Kind::Undefined);
  std::vector<Lit> value(m + 1, aig::kFalse);
  std::vector<bool> ready(m + 1, false);
  ready[0] = true;  // constant

  for (std::size_t k = 0; k < inputLits.size(); ++k) {
    const unsigned x = inputLits[k];
    // Literals 0/1 are the constants: a definition claiming them would
    // overwrite value[0] and corrupt every constant in the file.
    if ((x & 1) || x < 2 || x / 2 > m)
      LineReader::failAt(2 + k, "bad input literal");
    kind[x / 2] = Kind::Input;
    net.inputVars.push_back(x / 2);
    value[x / 2] = net.aig.pi(x / 2);
    ready[x / 2] = true;
  }
  for (const auto& ld : latches) {
    if ((ld.lit & 1) || ld.lit < 2 || ld.lit / 2 > m)
      LineReader::failAt(ld.lineNo, "bad latch literal");
    kind[ld.lit / 2] = Kind::Latch;
    net.stateVars.push_back(ld.lit / 2);
    net.init.push_back(ld.init);
    value[ld.lit / 2] = net.aig.pi(ld.lit / 2);
    ready[ld.lit / 2] = true;
  }
  for (const auto& g : ands) {
    if ((g.lhs & 1) || g.lhs < 2 || g.lhs / 2 > m ||
        kind[g.lhs / 2] != Kind::Undefined)
      LineReader::failAt(g.lineNo, "bad AND definition");
    kind[g.lhs / 2] = Kind::And;
  }

  auto litOf = [&](unsigned x) -> Lit {
    return value[x / 2] ^ ((x & 1) != 0);
  };

  // Worklist resolution (files need not be topologically sorted).
  std::vector<AagAnd> pending(ands.begin(), ands.end());
  while (!pending.empty()) {
    const std::size_t before = pending.size();
    std::erase_if(pending, [&](const AagAnd& g) {
      if (g.rhs0 / 2 > m || g.rhs1 / 2 > m)
        LineReader::failAt(g.lineNo, "AND fanin literal out of range");
      if (!ready[g.rhs0 / 2] || !ready[g.rhs1 / 2]) return false;
      value[g.lhs / 2] = net.aig.mkAnd(litOf(g.rhs0), litOf(g.rhs1));
      ready[g.lhs / 2] = true;
      return true;
    });
    if (pending.size() == before)
      LineReader::failAt(pending.front().lineNo,
                         "cyclic or undefined AND gates");
  }

  net.next.reserve(latches.size());
  for (const auto& ld : latches) {
    if (ld.next / 2 > m || !ready[ld.next / 2])
      LineReader::failAt(ld.lineNo, "undefined latch next-state");
    net.next.push_back(litOf(ld.next));
  }
  std::vector<Lit> bads;
  bads.reserve(outputs.size());
  for (const auto& od : outputs) {
    if (od.lit / 2 > m || !ready[od.lit / 2])
      LineReader::failAt(od.lineNo, "undefined output");
    bads.push_back(litOf(od.lit));
  }
  net.bad = net.aig.mkOrAll(bads);
  if (!net.wellFormed()) throw ParseError("malformed AIGER network");
  return net;
}

void writeAag(const Network& net, std::ostream& out) {
  // Assign AIGER variable indices: inputs, latches, then AND nodes of the
  // live cones in topological order.
  std::unordered_map<VarId, unsigned> piIndex;
  unsigned nextIdx = 1;
  for (const VarId v : net.inputVars) piIndex.emplace(v, nextIdx++);
  for (const VarId v : net.stateVars) piIndex.emplace(v, nextIdx++);

  std::vector<Lit> roots(net.next.begin(), net.next.end());
  roots.push_back(net.bad);
  const auto order = net.aig.coneAnds(roots);

  std::unordered_map<aig::NodeId, unsigned> andIndex;
  for (const aig::NodeId n : order) andIndex.emplace(n, nextIdx++);

  auto litCode = [&](Lit l) -> unsigned {
    unsigned var = 0;
    if (net.aig.isConst(l.node())) {
      var = 0;
    } else if (net.aig.isPi(l.node())) {
      var = piIndex.at(net.aig.piVar(l.node()));
    } else {
      var = andIndex.at(l.node());
    }
    return 2 * var + (l.negated() ? 1 : 0);
  };

  const unsigned m = nextIdx - 1;
  out << "aag " << m << ' ' << net.inputVars.size() << ' '
      << net.stateVars.size() << " 1 " << order.size() << '\n';
  for (const VarId v : net.inputVars) out << 2 * piIndex.at(v) << '\n';
  for (std::size_t j = 0; j < net.stateVars.size(); ++j) {
    out << 2 * piIndex.at(net.stateVars[j]) << ' ' << litCode(net.next[j]);
    if (net.init[j]) out << " 1";
    out << '\n';
  }
  out << litCode(net.bad) << '\n';
  for (const aig::NodeId n : order) {
    out << 2 * andIndex.at(n) << ' ' << litCode(net.aig.fanin0(n)) << ' '
        << litCode(net.aig.fanin1(n)) << '\n';
  }
  // Symbol table: record the network's original VarIds (AIGER reindexes
  // variables), then the instance name as a comment.
  for (std::size_t k = 0; k < net.inputVars.size(); ++k)
    out << 'i' << k << " v" << net.inputVars[k] << '\n';
  for (std::size_t k = 0; k < net.stateVars.size(); ++k)
    out << 'l' << k << " v" << net.stateVars[k] << '\n';
  out << "o0 bad\n";
  out << "c\n" << net.name << " (written by cbq)\n";
}

// ----- AIGER binary -----------------------------------------------------------

namespace {

/// Streaming byte source for the binary AND section: a fixed 64 KiB
/// buffer refilled with block reads. A million-gate instance decodes a
/// few megabytes of delta bytes; pulling them through per-byte
/// istream::get() virtual calls dominated the read, and slurping the
/// whole file would cost peak memory the giant bench family is built to
/// avoid. The buffer never grows past kChunk regardless of file size.
class ChunkedByteReader {
 public:
  explicit ChunkedByteReader(std::istream& in) : in_(in) {}

  /// Next byte as 0..255, or -1 at end of input.
  int get() {
    if (pos_ == len_) {
      // Injection site: fail-mode simulates a file truncated mid-chunk,
      // which the callers must turn into a clean ParseError.
      CBQ_FAULT_POINT("io.read_chunk");
      if (CBQ_FAULT_FAIL("io.read_chunk")) return -1;
      in_.read(buf_, kChunk);
      len_ = static_cast<std::size_t>(in_.gcount());
      pos_ = 0;
      if (len_ == 0) return -1;
    }
    return static_cast<unsigned char>(buf_[pos_++]);
  }

 private:
  static constexpr std::size_t kChunk = 64 * 1024;
  std::istream& in_;
  char buf_[kChunk];
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
};

/// LEB128-style varint used by the AIGER binary AND section.
unsigned readDelta(ChunkedByteReader& in) {
  unsigned x = 0;
  int shift = 0;
  for (;;) {
    const int ch = in.get();
    if (ch < 0) throw ParseError("truncated binary AND section");
    x |= static_cast<unsigned>(ch & 0x7f) << shift;
    if ((ch & 0x80) == 0) break;
    shift += 7;
    if (shift > 28) throw ParseError("oversized delta in binary AIGER");
  }
  return x;
}

void writeDelta(std::ostream& out, unsigned x) {
  while (x >= 0x80) {
    out.put(static_cast<char>((x & 0x7f) | 0x80));
    x >>= 7;
  }
  out.put(static_cast<char>(x));
}

}  // namespace

mc::Network readAigBinary(std::istream& in, std::string name) {
  // The header/latch/output section is line-oriented text (the shared
  // LineReader puts line numbers on error reports); the AND section is
  // raw bytes (byte-level diagnostics instead). getline stops exactly
  // after each '\n', so the reader hands the stream over to the binary
  // section in the right position.
  LineReader reader(in);
  unsigned m = 0;
  unsigned i = 0;
  unsigned l = 0;
  unsigned o = 0;
  unsigned a = 0;
  {
    std::istringstream hs(reader.expect("binary AIGER header"));
    std::string magic;
    if (!(hs >> magic >> m >> i >> l >> o >> a) || magic != "aig")
      reader.fail("not a binary AIGER header (aig M I L O A)");
    // The count cap comes first: M = I + L + A is checked in 64 bits so a
    // header crafted to wrap unsigned arithmetic cannot pass either test.
    if (m > kMaxHeaderCount || i > kMaxHeaderCount || l > kMaxHeaderCount ||
        o > kMaxHeaderCount || a > kMaxHeaderCount)
      reader.fail("implausible header count (limit 2^26)");
    if (static_cast<std::uint64_t>(i) + l + a != m)
      reader.fail("inconsistent binary AIGER header");
  }

  Network net;
  net.name = std::move(name);

  // Inputs are implicit: variables 1..I.
  std::vector<Lit> value(m + 1, aig::kFalse);
  for (unsigned k = 1; k <= i; ++k) {
    net.inputVars.push_back(k);
    value[k] = net.aig.pi(k);
  }
  // Latches are implicit variables I+1..I+L; their lines carry next [init].
  struct LatchDef {
    unsigned next;
    bool init;
  };
  std::vector<LatchDef> latches;
  latches.reserve(std::min<std::size_t>(l, kReserveCap));
  for (unsigned k = 0; k < l; ++k) {
    std::istringstream ls(reader.expect("a binary latch line"));
    LatchDef ld;
    unsigned init = 0;
    if (!(ls >> ld.next)) reader.fail("bad binary latch line");
    ld.init = (ls >> init) && init != 0;
    latches.push_back(ld);
    const unsigned var = i + 1 + k;
    net.stateVars.push_back(var);
    net.init.push_back(ld.init);
    value[var] = net.aig.pi(var);
  }
  std::vector<unsigned> outputs;
  outputs.reserve(std::min<std::size_t>(o, kReserveCap));
  for (unsigned k = 0; k < o; ++k) {
    std::istringstream ls(reader.expect("a binary output line"));
    unsigned x = 0;
    if (!(ls >> x)) reader.fail("bad binary output line");
    outputs.push_back(x);
  }

  auto litOf = [&](unsigned x) -> Lit {
    if (x / 2 > m) throw ParseError("literal out of range");
    return value[x / 2] ^ ((x & 1) != 0);
  };

  // Binary AND section: lhs implicit (2*(I+L+k+1)), rhs delta-encoded;
  // the format guarantees topological order. Decoded through a fixed-
  // size chunked buffer — the reader streams a million-gate file without
  // ever holding more than one chunk of it.
  ChunkedByteReader bytes(in);
  for (unsigned k = 0; k < a; ++k) {
    const unsigned lhs = 2 * (i + l + 1 + k);
    const unsigned delta0 = readDelta(bytes);
    const unsigned delta1 = readDelta(bytes);
    if (delta0 > lhs) throw ParseError("invalid delta0");
    const unsigned rhs0 = lhs - delta0;
    if (delta1 > rhs0) throw ParseError("invalid delta1");
    const unsigned rhs1 = rhs0 - delta1;
    value[lhs / 2] = net.aig.mkAnd(litOf(rhs0), litOf(rhs1));
  }

  net.next.reserve(l);
  for (const auto& ld : latches) net.next.push_back(litOf(ld.next));
  std::vector<Lit> bads;
  for (const unsigned x : outputs) bads.push_back(litOf(x));
  net.bad = net.aig.mkOrAll(bads);
  if (!net.wellFormed()) throw ParseError("malformed binary AIGER network");
  return net;
}

void writeAigBinary(const Network& net, std::ostream& out) {
  // Variable order required by the format: inputs, latches, ANDs (topo).
  std::unordered_map<VarId, unsigned> piIndex;
  unsigned nextIdx = 1;
  for (const VarId v : net.inputVars) piIndex.emplace(v, nextIdx++);
  for (const VarId v : net.stateVars) piIndex.emplace(v, nextIdx++);

  std::vector<Lit> roots(net.next.begin(), net.next.end());
  roots.push_back(net.bad);
  const auto order = net.aig.coneAnds(roots);
  std::unordered_map<aig::NodeId, unsigned> andIndex;
  for (const aig::NodeId n : order) andIndex.emplace(n, nextIdx++);

  auto litCode = [&](Lit l) -> unsigned {
    unsigned var = 0;
    if (net.aig.isPi(l.node())) {
      var = piIndex.at(net.aig.piVar(l.node()));
    } else if (net.aig.isAnd(l.node())) {
      var = andIndex.at(l.node());
    }
    return 2 * var + (l.negated() ? 1 : 0);
  };

  const unsigned m = nextIdx - 1;
  out << "aig " << m << ' ' << net.inputVars.size() << ' '
      << net.stateVars.size() << " 1 " << order.size() << '\n';
  for (std::size_t j = 0; j < net.stateVars.size(); ++j) {
    out << litCode(net.next[j]);
    if (net.init[j]) out << " 1";
    out << '\n';
  }
  out << litCode(net.bad) << '\n';
  for (const aig::NodeId n : order) {
    const unsigned lhs = 2 * andIndex.at(n);
    unsigned rhs0 = litCode(net.aig.fanin0(n));
    unsigned rhs1 = litCode(net.aig.fanin1(n));
    if (rhs0 < rhs1) std::swap(rhs0, rhs1);  // format: rhs0 >= rhs1
    writeDelta(out, lhs - rhs0);
    writeDelta(out, rhs0 - rhs1);
  }
}

// ----- ISCAS .bench -----------------------------------------------------------

mc::Network readBench(std::istream& in, std::string name) {
  Network net;
  net.name = std::move(name);

  struct GateDef {
    std::string out;
    std::string op;
    std::vector<std::string> args;
    std::size_t lineNo = 0;
  };
  struct NamedRef {
    std::string name;
    std::size_t lineNo;
  };
  struct DffDef {
    std::string q, d;
    std::size_t lineNo;
  };
  std::vector<GateDef> gates;
  std::vector<NamedRef> outputs;
  std::vector<DffDef> dffs;
  std::unordered_map<std::string, Lit> signal;
  std::unordered_map<std::string, bool> initOne;
  VarId nextVar = 0;

  LineReader reader(in);
  std::string line;
  while (reader.next(line)) {
    // Comments — including our `# init <name> = 1` extension.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      std::istringstream cs(line.substr(hash + 1));
      std::string word;
      cs >> word;
      if (word == "init") {
        std::string latchName;
        std::string eq;
        int value = 0;
        if (cs >> latchName >> eq >> value && eq == "=")
          initOne[latchName] = (value != 0);
      }
      line.erase(hash);
    }
    // Tokenize NAME = OP(a, b, ...) or INPUT(x) / OUTPUT(x).
    for (auto& c : line)
      if (c == '(' || c == ')' || c == ',' || c == '=') c = ' ';
    std::istringstream ls(line);
    std::vector<std::string> tok;
    std::string t;
    while (ls >> t) tok.push_back(t);
    if (tok.empty()) continue;

    auto upper = [](std::string s) {
      std::transform(s.begin(), s.end(), s.begin(),
                     [](unsigned char c) { return std::toupper(c); });
      return s;
    };

    if (upper(tok[0]) == "INPUT" && tok.size() == 2) {
      const VarId v = nextVar++;
      net.inputVars.push_back(v);
      signal.emplace(tok[1], net.aig.pi(v));
    } else if (upper(tok[0]) == "OUTPUT" && tok.size() == 2) {
      outputs.push_back({tok[1], reader.lineNo()});
    } else if (tok.size() >= 3 && upper(tok[1]) == "DFF") {
      dffs.push_back({tok[0], tok[2], reader.lineNo()});
      const VarId v = nextVar++;
      net.stateVars.push_back(v);
      signal.emplace(tok[0], net.aig.pi(v));
    } else if (tok.size() >= 3) {
      GateDef g;
      g.out = tok[0];
      g.op = upper(tok[1]);
      g.args.assign(tok.begin() + 2, tok.end());
      g.lineNo = reader.lineNo();
      gates.push_back(std::move(g));
    } else {
      reader.fail("unparsable .bench line: " + line);
    }
  }

  // Worklist resolution of combinational gates.
  auto buildGate = [&](const GateDef& g) -> Lit {
    std::vector<Lit> args;
    args.reserve(g.args.size());
    for (const auto& aName : g.args) args.push_back(signal.at(aName));
    aig::Aig& ag = net.aig;
    if (g.op == "AND") return ag.mkAndAll(args);
    if (g.op == "NAND") return !ag.mkAndAll(args);
    if (g.op == "OR") return ag.mkOrAll(args);
    if (g.op == "NOR") return !ag.mkOrAll(args);
    if (g.op == "XOR") {
      Lit r = args.at(0);
      for (std::size_t k = 1; k < args.size(); ++k) r = ag.mkXor(r, args[k]);
      return r;
    }
    if (g.op == "XNOR") {
      Lit r = args.at(0);
      for (std::size_t k = 1; k < args.size(); ++k) r = ag.mkXor(r, args[k]);
      return !r;
    }
    if (g.op == "NOT") return !args.at(0);
    if (g.op == "BUF" || g.op == "BUFF") return args.at(0);
    LineReader::failAt(g.lineNo, "unknown .bench gate type: " + g.op);
  };

  std::vector<GateDef> pending = gates;
  while (!pending.empty()) {
    const std::size_t before = pending.size();
    std::erase_if(pending, [&](const GateDef& g) {
      for (const auto& aName : g.args)
        if (!signal.contains(aName)) return false;
      signal.emplace(g.out, buildGate(g));
      return true;
    });
    if (pending.size() == before)
      LineReader::failAt(pending.front().lineNo,
                         "cyclic or undefined .bench gates");
  }

  for (const auto& dff : dffs) {
    if (!signal.contains(dff.d))
      LineReader::failAt(dff.lineNo, "undefined DFF input: " + dff.d);
    net.next.push_back(signal.at(dff.d));
    const auto initIt = initOne.find(dff.q);
    net.init.push_back(initIt != initOne.end() && initIt->second);
  }
  std::vector<Lit> bads;
  for (const auto& out : outputs) {
    if (!signal.contains(out.name))
      LineReader::failAt(out.lineNo, "undefined output: " + out.name);
    bads.push_back(signal.at(out.name));
  }
  net.bad = net.aig.mkOrAll(bads);
  if (!net.wellFormed()) throw ParseError("malformed .bench network");
  return net;
}

void writeBench(const Network& net, std::ostream& out) {
  // Appending (instead of `"i" + std::to_string(k)`) keeps g++-12's
  // -Wrestrict false positive on prepend-into-temporary quiet.
  auto numbered = [](char prefix, std::size_t k) {
    std::string name(1, prefix);
    name += std::to_string(k);
    return name;
  };
  std::unordered_map<VarId, std::string> piName;
  for (std::size_t k = 0; k < net.inputVars.size(); ++k)
    piName.emplace(net.inputVars[k], numbered('i', k));
  for (std::size_t k = 0; k < net.stateVars.size(); ++k)
    piName.emplace(net.stateVars[k], numbered('l', k));

  std::vector<Lit> roots(net.next.begin(), net.next.end());
  roots.push_back(net.bad);
  const auto order = net.aig.coneAnds(roots);

  std::unordered_map<aig::NodeId, std::string> nodeName;
  auto baseName = [&](aig::NodeId n) -> std::string {
    if (net.aig.isConst(n)) return "const0";
    if (net.aig.isPi(n)) return piName.at(net.aig.piVar(n));
    return nodeName.at(n);
  };

  out << "# " << net.name << " (written by cbq)\n";
  for (std::size_t j = 0; j < net.init.size(); ++j)
    if (net.init[j]) out << "# init l" << j << " = 1\n";
  for (std::size_t k = 0; k < net.inputVars.size(); ++k)
    out << "INPUT(i" << k << ")\n";
  out << "OUTPUT(bad)\n";

  // Dedicated constant and inverter gates (bench has no inline negation).
  // Inverter definitions are queued and flushed *before* the line that
  // references them, so lines never interleave.
  bool needConst = false;
  std::unordered_map<std::string, bool> inverterEmitted;
  std::ostringstream body;
  std::vector<std::string> pendingInverters;
  auto litName = [&](Lit l) -> std::string {
    const std::string base = baseName(l.node());
    if (base == "const0") needConst = true;
    if (!l.negated()) return base;
    const std::string inv = base + "_n";
    if (!inverterEmitted[inv]) {
      pendingInverters.push_back(inv + " = NOT(" + base + ")");
      inverterEmitted[inv] = true;
    }
    return inv;
  };
  auto flushInverters = [&] {
    for (const auto& line : pendingInverters) body << line << '\n';
    pendingInverters.clear();
  };

  for (const aig::NodeId n : order) {
    nodeName.emplace(n, numbered('g', n));
    const std::string a = litName(net.aig.fanin0(n));
    const std::string b = litName(net.aig.fanin1(n));
    flushInverters();
    body << nodeName.at(n) << " = AND(" << a << ", " << b << ")\n";
  }
  {
    const std::string badName = litName(net.bad);
    flushInverters();
    body << "bad = BUF(" << badName << ")\n";
  }
  for (std::size_t j = 0; j < net.stateVars.size(); ++j) {
    const std::string nx = litName(net.next[j]);
    flushInverters();
    body << "l" << j << " = DFF(" << nx << ")\n";
  }

  if (needConst) {
    // const0 = AND(x, NOT(x)) over the first available signal.
    const std::string base = !net.inputVars.empty()
                                 ? "i0"
                                 : (!net.stateVars.empty() ? "l0" : "");
    if (base.empty()) throw ParseError("cannot emit constant: no signals");
    out << base << "_n0 = NOT(" << base << ")\n";
    out << "const0 = AND(" << base << ", " << base << "_n0)\n";
  }
  out << body.str();
}

mc::Network readCircuitFile(const std::string& path) {
  const auto dot = path.find_last_of('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  // Binary AIGER carries delta-encoded AND bytes that text-mode reads
  // mangle on platforms with newline translation.
  const auto mode = ext == ".aig" ? std::ios::in | std::ios::binary
                                  : std::ios::in;
  std::ifstream in(path, mode);
  if (!in) throw ParseError("cannot open file: " + path);
  const auto slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  // Prefix parse failures with the file path, so a batch over hundreds
  // of files reports `dir/foo.aag: line 12: bad latch line`.
  try {
    if (ext == ".aag") return readAag(in, base);
    if (ext == ".aig") return readAigBinary(in, base);
    if (ext == ".bench") return readBench(in, base);
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  }
  throw ParseError("unsupported circuit file extension: " + path);
}

}  // namespace cbq::circuits
