#include "sweep/signatures.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace cbq::sweep {

namespace {

using aig::Lit;
using aig::NodeId;
using aig::VarId;

std::uint64_t negMask(bool b) { return b ? ~std::uint64_t{0} : 0; }

// Grains for pool partitioning. A resimulate chunk touches `words_` (a
// couple of cache lines) per node; a single-column chunk touches one word
// per node — keep chunks big enough that claiming one costs nothing.
constexpr std::size_t kResimGrain = 1024;
constexpr std::size_t kColumnGrain = 8192;

}  // namespace

Signatures::Signatures(const aig::Aig& aig, std::span<const NodeId> order,
                       std::span<const VarId> support, util::Random& rng,
                       int initialWords, int maxWords, util::ThreadPool* pool)
    : aig_(&aig),
      pool_(pool),
      support_(support.begin(), support.end()),
      stride_(static_cast<std::size_t>(
          maxWords > initialWords ? maxWords : initialWords)),
      words_(static_cast<std::size_t>(initialWords > 0 ? initialWords : 1)) {
  if (stride_ < words_) stride_ = words_;

  supportNode_.reserve(support_.size());
  for (const VarId v : support_) supportNode_.push_back(aig.piNodeOf(v));

  piArena_.assign(support_.size() * stride_, 0);
  for (std::size_t i = 0; i < support_.size(); ++i)
    for (std::size_t w = 0; w < words_; ++w)
      piArena_[i * stride_ + w] = rng.next64();

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

  // Level strata: a stable sort of the topological order by level keeps a
  // valid order (every fanin has a strictly smaller level) while making
  // each level a contiguous, internally independent range.
  const aig::Aig& aig = *aig_;
  levelOrder_ = order_;
  std::stable_sort(levelOrder_.begin(), levelOrder_.end(),
                   [&aig](NodeId a, NodeId b) {
                     return aig.level(a) < aig.level(b);
                   });
  strata_.clear();
  for (std::size_t i = 0; i < levelOrder_.size();) {
    const unsigned lvl = aig.level(levelOrder_[i]);
    std::size_t j = i + 1;
    while (j < levelOrder_.size() && aig.level(levelOrder_[j]) == lvl) ++j;
    strata_.emplace_back(i, j);
    i = j;
  }

  arena_.assign(static_cast<std::size_t>(next) * stride_, 0);
  // The forced-fanout scratch follows the slot count on its next use.
  forced_.clear();
  touched_.clear();
  resimulateAll();
}

void Signatures::loadPiColumn(std::size_t w) {
  for (std::size_t i = 0; i < support_.size(); ++i)
    arena_[slotOf_[supportNode_[i]] * stride_ + w] = piArena_[i * stride_ + w];
}

void Signatures::simulateColumn(std::size_t w) {
  // Constant slot stays 0. PIs first, then stratum by stratum — within a
  // stratum every node writes only its own slot, so splitting the range
  // across lanes is race-free and bit-identical at any thread count.
  loadPiColumn(w);
  for (const auto& [sb, se] : strata_) {
    auto body = [&](std::size_t begin, std::size_t end, int) {
      for (std::size_t i = begin; i < end; ++i) {
        const NodeId n = levelOrder_[sb + i];
        const Lit f0 = aig_->fanin0(n);
        const Lit f1 = aig_->fanin1(n);
        const std::uint64_t a =
            arena_[slotOf_[f0.node()] * stride_ + w] ^ negMask(f0.negated());
        const std::uint64_t b =
            arena_[slotOf_[f1.node()] * stride_ + w] ^ negMask(f1.negated());
        arena_[slotOf_[n] * stride_ + w] = a & b;
      }
    };
    if (pool_ != nullptr)
      pool_->parallelFor(se - sb, kColumnGrain, body);
    else
      body(0, se - sb, 0);
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
  simulateColumn(w);
}

bool Signatures::forcingChanges(NodeId forced, bool value, NodeId root,
                                std::span<const std::uint64_t> mask) {
  // A node already taking `value` on every pattern changes nothing.
  if (value ? allOne(forced) : allZero(forced)) return false;

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
  std::fill_n(&forced_[fs * stride_], words, negMask(value));
  touched_[fs] = epoch_;

  // order_ is topological: nothing before `forced` depends on it, and
  // nothing after `root` can reach it.
  const Slot rs = slotOf_[root];
  if (forced != root) {
    auto it = std::find(order_.begin(), order_.end(), forced);
    if (it != order_.end()) ++it;
    for (; it != order_.end(); ++it) {
      const NodeId n = *it;
      const Lit f0 = aig_->fanin0(n);
      const Lit f1 = aig_->fanin1(n);
      const Slot s0 = slotOf_[f0.node()];
      const Slot s1 = slotOf_[f1.node()];
      if (touched_[s0] == epoch_ || touched_[s1] == epoch_) {
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
      if (n == root) break;
    }
  }
  if (touched_[rs] != epoch_) return false;
  const std::uint64_t* f = &forced_[rs * stride_];
  const std::uint64_t* base = &arena_[rs * stride_];
  for (std::size_t w = 0; w < words; ++w)
    if (((f[w] ^ base[w]) & mask[w]) != 0) return true;
  return false;
}

void Signatures::resimulateAll() {
  // Node-major: one pass over the cone, and per node a contiguous word
  // loop the compiler vectorizes (mask-XOR + AND over dense rows). The
  // PI rows are copied first, then each stratum is a parallel-for.
  for (std::size_t w = 0; w < words_; ++w) loadPiColumn(w);
  const std::size_t words = words_;
  for (const auto& [sb, se] : strata_) {
    auto body = [&](std::size_t begin, std::size_t end, int) {
      for (std::size_t i = begin; i < end; ++i) {
        const NodeId n = levelOrder_[sb + i];
        const Lit f0 = aig_->fanin0(n);
        const Lit f1 = aig_->fanin1(n);
        const std::uint64_t ma = negMask(f0.negated());
        const std::uint64_t mb = negMask(f1.negated());
        const std::uint64_t* a = &arena_[slotOf_[f0.node()] * stride_];
        const std::uint64_t* b = &arena_[slotOf_[f1.node()] * stride_];
        std::uint64_t* o = &arena_[slotOf_[n] * stride_];
        for (std::size_t w = 0; w < words; ++w)
          o[w] = (a[w] ^ ma) & (b[w] ^ mb);
      }
    };
    if (pool_ != nullptr)
      pool_->parallelFor(se - sb, kResimGrain, body);
    else
      body(0, se - sb, 0);
  }
}

void Signatures::resimulateAllReference() {
  // Column-major, strictly serial over the original topological order —
  // the pre-parallel implementation, preserved as the bit-exact referee.
  for (std::size_t w = 0; w < words_; ++w) {
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
}

bool Signatures::allZero(NodeId n) const {
  const std::uint64_t* s = &arena_[slotOf_[n] * stride_];
  for (std::size_t w = 0; w < words_; ++w)
    if (s[w] != 0) return false;
  return true;
}

bool Signatures::allOne(NodeId n) const {
  const std::uint64_t* s = &arena_[slotOf_[n] * stride_];
  for (std::size_t w = 0; w < words_; ++w)
    if (s[w] != ~std::uint64_t{0}) return false;
  return true;
}

Signatures::Key Signatures::normalizedKey(NodeId n) const {
  const std::uint64_t* s = &arena_[slotOf_[n] * stride_];
  const bool phase = (s[0] & 1) != 0;
  const std::uint64_t flip = negMask(phase);
  std::uint64_t h = 0x2545f4914f6cdd1dull;
  for (std::size_t w = 0; w < words_; ++w)
    h = mix64(h ^ mix64((s[w] ^ flip) + w));
  return {h, phase};
}

bool Signatures::equalNormalized(NodeId a, bool phaseA, NodeId b,
                                 bool phaseB) const {
  const std::uint64_t* sa = &arena_[slotOf_[a] * stride_];
  const std::uint64_t* sb = &arena_[slotOf_[b] * stride_];
  const std::uint64_t flip = negMask(phaseA != phaseB);
  for (std::size_t w = 0; w < words_; ++w)
    if (sa[w] != (sb[w] ^ flip)) return false;
  return true;
}

}  // namespace cbq::sweep
