#include "sweep/signatures.hpp"

#include <algorithm>
#include <bit>

namespace cbq::sweep {

namespace {

using aig::Lit;
using aig::NodeId;
using aig::VarId;

std::uint64_t negMask(bool b) { return b ? ~std::uint64_t{0} : 0; }

/// splitmix64 finalizer — the word mixer behind every signature key.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Word `w` of support entry `i`'s row in an exhaustive arena: bit b is
/// bit i of the pattern index 64·w + b.
std::uint64_t enumerationWord(std::size_t i, std::size_t w) {
  static constexpr std::uint64_t kLow[6] = {
      0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
      0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};
  return i < 6 ? kLow[i] : negMask(((w >> (i - 6)) & 1) != 0);
}

/// True when a support of `inputs` variables under a cone of `ands` AND
/// nodes gets an exhaustive arena.
bool fitsExhaustive(std::size_t inputs, std::size_t ands) {
  if (inputs > Signatures::kExhaustiveMaxInputs) return false;
  // Slot count bound: the constant, the PIs, the cone ANDs.
  const std::size_t words = std::size_t{1} << (inputs > 6 ? inputs - 6 : 0);
  return words * (1 + inputs + ands) <= Signatures::kExhaustiveMaxArenaWords;
}

}  // namespace

std::optional<Signatures> Signatures::truthTables(const aig::Aig& aig,
                                                  std::span<const Lit> roots) {
  // The support first: a wide one rules the arena out without the cone.
  const auto support = aig.supportVars(roots);
  if (support.size() > kExhaustiveMaxInputs) return std::nullopt;
  const auto order = aig.coneAnds(roots);
  if (!fitsExhaustive(support.size(), order.size())) return std::nullopt;
  util::Random unused;  // an exhaustive arena draws no random word
  return std::optional<Signatures>(std::in_place, aig, order, support, unused,
                                   1, 1);
}

Signatures::Signatures(const aig::Aig& aig, std::span<const NodeId> order,
                       std::span<const VarId> support, util::Random& rng,
                       int initialWords, int maxWords)
    : aig_(&aig),
      support_(support.begin(), support.end()),
      stride_(static_cast<std::size_t>(
          maxWords > initialWords ? maxWords : initialWords)),
      words_(static_cast<std::size_t>(initialWords > 0 ? initialWords : 1)) {
  if (stride_ < words_) stride_ = words_;

  supportNode_.reserve(support_.size());
  for (const VarId v : support_) supportNode_.push_back(aig.piNodeOf(v));

  const std::size_t n = support_.size();
  exhaustive_ = fitsExhaustive(n, order.size());
  if (exhaustive_) stride_ = words_ = std::size_t{1} << (n > 6 ? n - 6 : 0);

  piArena_.assign(n * stride_, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t w = 0; w < words_; ++w)
      piArena_[i * stride_ + w] =
          exhaustive_ ? enumerationWord(i, w) : rng.next64();

  relayout(order);
}

void Signatures::relayout(std::span<const NodeId> order) {
  order_.assign(order.begin(), order.end());

  // Dense slots: constant node first, then the support PIs, then the cone
  // ANDs in topological order.
  slotOf_.assign(aig_->numNodes(), kNoSlot);
  Slot next = 0;
  slotOf_[0] = next++;
  for (const NodeId p : supportNode_)
    if (slotOf_[p] == kNoSlot) slotOf_[p] = next++;
  for (const NodeId n : order_)
    if (slotOf_[n] == kNoSlot) slotOf_[n] = next++;

  arena_.assign(static_cast<std::size_t>(next) * stride_, 0);
  // The forced-fanout scratch follows the slot count on its next use.
  forced_.clear();
  touched_.clear();
  dropObservability();
  resimulateAll();
}

void Signatures::loadPiColumn(std::size_t w) {
  for (std::size_t i = 0; i < support_.size(); ++i)
    arena_[slotOf_[supportNode_[i]] * stride_ + w] = piArena_[i * stride_ + w];
}

void Signatures::simulateColumn(std::size_t w) {
  // Constant slot stays 0; PIs first, then the cone in topological order.
  loadPiColumn(w);
  for (const NodeId n : order_) {
    const Lit f0 = aig_->fanin0(n);
    const Lit f1 = aig_->fanin1(n);
    const std::uint64_t a =
        arena_[slotOf_[f0.node()] * stride_ + w] ^ negMask(f0.negated());
    const std::uint64_t b =
        arena_[slotOf_[f1.node()] * stride_ + w] ^ negMask(f1.negated());
    arena_[slotOf_[n] * stride_ + w] = a & b;
  }
}

bool Signatures::appendWord(std::span<const std::uint64_t> cexBits,
                            int cexCount, util::Random& rng) {
  if (words_ >= stride_) return false;  // arena full — a true no-op
  const std::uint64_t keepMask =
      cexCount >= 64 ? ~std::uint64_t{0}
                     : ((std::uint64_t{1} << cexCount) - 1);
  const std::size_t w = words_;
  for (std::size_t i = 0; i < support_.size(); ++i) {
    std::uint64_t word = rng.next64() & ~keepMask;
    word |= cexBits[i] & keepMask;
    piArena_[i * stride_ + w] = word;
  }
  ++words_;
  dropObservability();
  simulateColumn(w);
  return true;
}

void Signatures::refreshWord(std::size_t w,
                             std::span<const std::uint64_t> cexBits,
                             int cexCount) {
  const std::uint64_t keepMask =
      cexCount >= 64 ? ~std::uint64_t{0}
                     : ((std::uint64_t{1} << cexCount) - 1);
  for (std::size_t i = 0; i < support_.size(); ++i) {
    std::uint64_t& word = piArena_[i * stride_ + w];
    word = (word & ~keepMask) | (cexBits[i] & keepMask);
  }
  dropObservability();
  simulateColumn(w);
}

bool Signatures::forcingChanges(NodeId forced, bool value, NodeId root,
                                Lit care) {
  // A node already taking `value` on every pattern changes nothing.
  if (constantUnder(forced, value, aig::kTrue)) return false;
  if (forced != obsForced_ || root != obsRoot_) flipPass(forced, root);
  // Simulation is pattern-wise: forcing := value changes `root` exactly
  // where the node differs from `value` and its flip is observable.
  const std::uint64_t* f = &arena_[slotOf_[forced] * stride_];
  const std::uint64_t flip = negMask(value);
  for (std::size_t w = 0; w < words_; ++w)
    if ((obsMask_[w] & (f[w] ^ flip) & careWord(care, w)) != 0) return true;
  return false;
}

void Signatures::flipPass(NodeId forced, NodeId root) {
  const std::size_t slots = arena_.size() / stride_;
  if (touched_.size() != slots) {
    forced_.assign(arena_.size(), 0);
    touched_.assign(slots, 0);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {  // wrapped: no stale stamp may alias the new epoch
    std::fill(touched_.begin(), touched_.end(), 0);
    epoch_ = 1;
  }
  const std::size_t words = words_;
  auto row = [&](Slot s) -> const std::uint64_t* {
    return touched_[s] == epoch_ ? &forced_[s * stride_] : &arena_[s * stride_];
  };

  const Slot fs = slotOf_[forced];
  for (std::size_t w = 0; w < words; ++w)
    forced_[fs * stride_ + w] = ~arena_[fs * stride_ + w];
  touched_[fs] = epoch_;

  // order_ is topological and order_[k] sits in slot firstAndSlot() + k:
  // nothing before `forced` depends on it, and nothing after `root` can
  // reach it. Propagation stops at rows that come out unchanged.
  const Slot first = firstAndSlot();
  const Slot rs = slotOf_[root];
  for (std::size_t k = fs < first ? 0 : fs - first + 1;
       rs >= first && k <= rs - first; ++k) {
    const NodeId n = order_[k];
    const Lit f0 = aig_->fanin0(n);
    const Lit f1 = aig_->fanin1(n);
    const Slot s0 = slotOf_[f0.node()];
    const Slot s1 = slotOf_[f1.node()];
    if (touched_[s0] != epoch_ && touched_[s1] != epoch_) continue;
    const Slot sn = slotOf_[n];
    const std::uint64_t ma = negMask(f0.negated());
    const std::uint64_t mb = negMask(f1.negated());
    const std::uint64_t* a = row(s0);
    const std::uint64_t* b = row(s1);
    const std::uint64_t* base = &arena_[sn * stride_];
    std::uint64_t* o = &forced_[sn * stride_];
    std::uint64_t diff = 0;
    for (std::size_t w = 0; w < words; ++w) {
      o[w] = (a[w] ^ ma) & (b[w] ^ mb);
      diff |= o[w] ^ base[w];
    }
    if (diff != 0) touched_[sn] = epoch_;
  }

  obsMask_.assign(words, 0);
  if (touched_[rs] == epoch_)
    for (std::size_t w = 0; w < words; ++w)
      obsMask_[w] = forced_[rs * stride_ + w] ^ arena_[rs * stride_ + w];
  obsForced_ = forced;
  obsRoot_ = root;
}

void Signatures::resimulateAll() {
  // Node-major: one pass over the cone, and per node a contiguous word
  // loop the compiler vectorizes (mask-XOR + AND over dense rows).
  for (std::size_t w = 0; w < words_; ++w) loadPiColumn(w);
  const std::size_t words = words_;
  for (const NodeId n : order_) {
    const Lit f0 = aig_->fanin0(n);
    const Lit f1 = aig_->fanin1(n);
    const std::uint64_t ma = negMask(f0.negated());
    const std::uint64_t mb = negMask(f1.negated());
    const std::uint64_t* a = &arena_[slotOf_[f0.node()] * stride_];
    const std::uint64_t* b = &arena_[slotOf_[f1.node()] * stride_];
    std::uint64_t* o = &arena_[slotOf_[n] * stride_];
    for (std::size_t w = 0; w < words; ++w) o[w] = (a[w] ^ ma) & (b[w] ^ mb);
  }
}

void Signatures::resimulateAllReference() {
  // Column-major: the per-column walk the incremental appends use, once
  // per active column — the bit-exact referee for resimulateAll().
  for (std::size_t w = 0; w < words_; ++w) simulateColumn(w);
}

std::uint64_t Signatures::careWord(Lit care, std::size_t w) const {
  return arena_[slotOf_[care.node()] * stride_ + w] ^ negMask(care.negated());
}

bool Signatures::constantUnder(NodeId n, bool value, Lit care) const {
  const std::uint64_t* s = &arena_[slotOf_[n] * stride_];
  const std::uint64_t flip = negMask(value);
  for (std::size_t w = 0; w < words_; ++w)
    if (((s[w] ^ flip) & careWord(care, w)) != 0) return false;
  return true;
}

Signatures::Key Signatures::normalizedKey(NodeId n, Lit care) const {
  const std::uint64_t* s = &arena_[slotOf_[n] * stride_];
  // The phase is the value on the first care pattern (bit 0 of word 0
  // when care is everywhere); no care pattern at all leaves it 0.
  bool phase = false;
  for (std::size_t w = 0; w < words_; ++w) {
    if (const std::uint64_t c = careWord(care, w); c != 0) {
      phase = ((s[w] >> std::countr_zero(c)) & 1) != 0;
      break;
    }
  }
  const std::uint64_t flip = negMask(phase);
  std::uint64_t h = 0x2545f4914f6cdd1dull;
  for (std::size_t w = 0; w < words_; ++w)
    h = mix64(h ^ mix64(((s[w] ^ flip) & careWord(care, w)) + w));
  return {h, phase};
}

bool Signatures::equalNormalized(NodeId a, bool phaseA, NodeId b, bool phaseB,
                                 Lit care) const {
  const std::uint64_t* sa = &arena_[slotOf_[a] * stride_];
  const std::uint64_t* sb = &arena_[slotOf_[b] * stride_];
  const std::uint64_t flip = negMask(phaseA != phaseB);
  for (std::size_t w = 0; w < words_; ++w)
    if (((sa[w] ^ sb[w] ^ flip) & careWord(care, w)) != 0) return false;
  return true;
}

bool Signatures::impliesOnAll(Lit a, Lit b) const {
  for (std::size_t w = 0; w < words_; ++w)
    if ((careWord(a, w) & ~careWord(b, w)) != 0) return false;
  return true;
}

}  // namespace cbq::sweep
