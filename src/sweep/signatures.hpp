#pragma once
// Flat multi-word simulation signatures for sweeping-style engines.
//
// One cone, one arena: every node in the (topologically ordered) cone gets
// a dense slot, and all simulation words live in a single node-major
// std::vector<uint64_t> with a fixed stride. Compared to the previous
// vector-of-vectors design this removes every per-node allocation on the
// hot refinement path, and — because columns are stored per slot — a
// counterexample append simulates ONLY the new word column instead of
// resimulating the whole history (the old appendWord was O(words) per
// refinement round, O(words²) over a run).
//
// Simulation is organized by topological STRATA: the cone order is
// stable-sorted by AIG level, so all nodes of one level form a contiguous
// range whose fanins live strictly in earlier ranges (or in the PI row).
// Within a stratum every node writes only its own slot, which makes each
// stratum an embarrassingly parallel loop — resimulateAll() runs the
// node-major inner word loop (a straight-line `(a^ma) & (b^mb)` over a
// contiguous row, auto-vectorizable) across an optional ThreadPool, and
// the result is bit-identical at any thread count because the partition
// only splits disjoint slot writes.
//
// Class keys are 64-bit mixed hashes of the complement-normalized words
// (splitmix-style finalization per word), with exact word comparison as
// the collision referee, replacing the former per-node std::string keys.

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "util/random.hpp"

namespace cbq::util {
class ThreadPool;
}

namespace cbq::audit {
struct Access;
}

namespace cbq::sweep {

/// splitmix64 finalizer — the word mixer behind every signature-class
/// key (sweeper classes and the DC engine's care-masked classes).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Signatures {
 public:
  /// Slot index inside the dense arena.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xffffffffu;

  /// `order` is the cone's AND nodes in topological order (fanins first),
  /// `support` the sorted external variables of its PIs. `initialWords`
  /// random columns are generated immediately; the arena reserves room for
  /// `maxWords` columns so refinement appends never reallocate. `pool`
  /// (optional, non-owning) parallelizes simulation across level strata;
  /// null means serial, and any pool yields bit-identical words.
  Signatures(const aig::Aig& aig, std::span<const aig::NodeId> order,
             std::span<const aig::VarId> support, util::Random& rng,
             int initialWords, int maxWords,
             util::ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }

  /// Appends one simulation word per PI — bit j of `cexBits[i]` (parallel
  /// to the support array) is the j-th stored counterexample value, the
  /// remaining bits random noise — and simulates ONLY the new column.
  /// Returns false (and changes nothing, not even the RNG stream) when the
  /// arena is full (words() == stride()), so refinement loops can tell a
  /// real append from a no-op and surface an arena-full stat.
  [[nodiscard]] bool appendWord(std::span<const std::uint64_t> cexBits,
                                int cexCount, util::Random& rng);

  /// Overwrites the low `cexCount` bits of active column `w` — bit j of
  /// `cexBits[i]` (parallel to the support array) is the j-th pattern's
  /// value of support entry i, as in appendWord — keeping the column's
  /// other bits, and simulates ONLY that column. Lets a caller grow a
  /// partly filled counterexample column one pattern at a time.
  void refreshWord(std::size_t w, std::span<const std::uint64_t> cexBits,
                   int cexCount);

  /// Re-lays the arena over a new cone `order` on the same support,
  /// keeping every stored PI column (the pattern bank), and resimulates
  /// it. The slot table is sized to the manager's current node count, so
  /// nodes created since the previous layout become addressable.
  void relayout(std::span<const aig::NodeId> order);

  /// True when forcing AND node `forced` of the cone to the constant
  /// `value` changes node `root`'s words on some pattern selected by
  /// `mask` (one word per active column) — a concrete input pattern on
  /// which the rewrite forced := value is observable at `root`. Only the
  /// transitive fanout of `forced` is resimulated, into a scratch arena,
  /// and propagation stops at nodes whose words come out unchanged.
  [[nodiscard]] bool forcingChanges(aig::NodeId forced, bool value,
                                    aig::NodeId root,
                                    std::span<const std::uint64_t> mask);

  /// Recomputes every active column of every node from the stored PI
  /// words, node-major (per node, one contiguous SIMD-friendly word loop)
  /// and stratum-parallel when a pool is attached. The result must be
  /// bit-for-bit identical to the incrementally maintained state AND to
  /// resimulateAllReference(); tests use both as referees.
  void resimulateAll();

  /// The pre-parallel column-major serial recomputation, kept verbatim as
  /// the bit-exact referee for resimulateAll() (tests/test_parallel.cpp)
  /// and as the micro-benchmark baseline (bench/micro_aig.cpp).
  void resimulateAllReference();

  /// Active signature words of node `n` (must be in the cone).
  [[nodiscard]] std::span<const std::uint64_t> of(aig::NodeId n) const {
    return {&arena_[slotOf_[n] * stride_], words_};
  }

  [[nodiscard]] bool inCone(aig::NodeId n) const {
    return n < slotOf_.size() && slotOf_[n] != kNoSlot;
  }

  [[nodiscard]] bool allZero(aig::NodeId n) const;
  [[nodiscard]] bool allOne(aig::NodeId n) const;

  /// Complement-normalized 64-bit mixed hash plus the normalization phase
  /// (true = the signature was complemented so that bit 0 of word 0 is 0).
  struct Key {
    std::uint64_t hash;
    bool phase;
  };
  [[nodiscard]] Key normalizedKey(aig::NodeId n) const;

  /// Exact equality of the complement-normalized signatures (the collision
  /// referee behind hash-equal candidates).
  [[nodiscard]] bool equalNormalized(aig::NodeId a, bool phaseA,
                                     aig::NodeId b, bool phaseB) const;

 private:
  friend struct ::cbq::audit::Access;

  void simulateColumn(std::size_t w);
  void loadPiColumn(std::size_t w);

  const aig::Aig* aig_;
  util::ThreadPool* pool_;  // non-owning; null = serial
  std::vector<aig::NodeId> order_;
  std::vector<aig::VarId> support_;
  std::vector<aig::NodeId> supportNode_;  // PI node per support entry

  /// order_ stable-sorted by AIG level; strata_[k] = [begin, end) range of
  /// levelOrder_ holding all cone nodes of the k-th occupied level. Fanins
  /// of a stratum node are PIs or live in strictly earlier strata.
  std::vector<aig::NodeId> levelOrder_;
  std::vector<std::pair<std::size_t, std::size_t>> strata_;

  std::size_t stride_;  // reserved columns per slot
  std::size_t words_;   // active columns
  std::vector<Slot> slotOf_;          // NodeId -> arena slot (kNoSlot = out)
  std::vector<std::uint64_t> arena_;  // node-major, slot * stride_ + word
  std::vector<std::uint64_t> piArena_;  // support-major, i * stride_ + word

  // forcingChanges scratch: rows of the forced fanout, valid for a slot
  // only while touched_[slot] == epoch_.
  std::vector<std::uint64_t> forced_;
  std::vector<std::uint32_t> touched_;
  std::uint32_t epoch_ = 0;
};

}  // namespace cbq::sweep
