#pragma once
// Flat multi-word simulation signatures for sweeping-style engines.
//
// One cone, one arena: every node in the (topologically ordered) cone gets
// a dense slot, and all simulation words live in a single node-major
// std::vector<uint64_t> with a fixed stride. A counterexample append
// simulates ONLY the new word column instead of resimulating the whole
// history.
//
// The PI rows hold the patterns, in one of two modes chosen by the
// constructor and kept for the arena's lifetime (relayout included):
//
//  * exhaustive — when the support has n <= kExhaustiveMaxInputs inputs
//    and the arena (2^max(n-6,0) words per slot) fits
//    kExhaustiveMaxArenaWords, the rows enumerate every input pattern
//    0..2^n-1: PI i < 6 holds the constant mask 0xAAAA…, 0xCCCC…, …,
//    PI i >= 6 holds bit (i-6) of the word index. Every signature is then
//    the node's complete truth table, so equal (care-masked) signatures
//    are a proof and a forcingChanges miss is one too. The arena is full
//    from the start: appends add nothing.
//  * random — otherwise: `initialWords` random columns, grown by
//    counterexample appends up to `maxWords`. Equal signatures are only
//    candidates for SAT.
//
// resimulateAll() walks the topological cone order node-major: per node,
// a straight-line `(a^ma) & (b^mb)` over contiguous rows that the
// compiler auto-vectorizes.
//
// Class keys are 64-bit mixed hashes of the complement-normalized words
// (splitmix-style finalization per word), with exact word comparison as
// the collision referee. Keys, equality and constant tests take a care
// literal: the §2.2 input don't-care phase compares signatures only where
// ¬fRef holds, the §2.1 sweeper everywhere (care = kTrue).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "util/random.hpp"

namespace cbq::audit {
struct Access;
}

namespace cbq::sweep {

class Signatures {
 public:
  /// Slot index inside the dense arena.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xffffffffu;

  /// Largest support the exhaustive mode enumerates (2^14 patterns, 256
  /// words per slot). Of the benchmarked circuits only arbiter8's cones
  /// (13-16 inputs) sit near it: there simulation and SAT tie at 13-14
  /// inputs, and simulation loses at 15-16.
  static constexpr std::size_t kExhaustiveMaxInputs = 14;
  /// Exhaustive arena cap in words over all slots (2 MB): a large cone on
  /// a small support falls back to random words.
  static constexpr std::size_t kExhaustiveMaxArenaWords = std::size_t{1}
                                                          << 18;

  /// The exhaustive arena over the cones of `roots` — every node's
  /// complete truth table — or std::nullopt when their support or size is
  /// past the bound. Lets set-level queries (implication, emptiness) on
  /// small supports be decided without a SAT call.
  [[nodiscard]] static std::optional<Signatures> truthTables(
      const aig::Aig& aig, std::span<const aig::Lit> roots);

  /// `order` is the cone's AND nodes in topological order (fanins first),
  /// `support` the sorted external variables of its PIs. An exhaustive
  /// arena (see the file comment) ignores the word counts and draws
  /// nothing from `rng`. Otherwise `initialWords` random columns are
  /// generated immediately, and the arena reserves room for `maxWords`
  /// columns so refinement appends never reallocate.
  Signatures(const aig::Aig& aig, std::span<const aig::NodeId> order,
             std::span<const aig::VarId> support, util::Random& rng,
             int initialWords, int maxWords);

  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  /// True when the PI rows enumerate every input pattern of the support.
  [[nodiscard]] bool exhaustive() const { return exhaustive_; }

  /// Appends one simulation word per PI — bit j of `cexBits[i]` (parallel
  /// to the support array) is the j-th stored counterexample value, the
  /// remaining bits random noise — and simulates ONLY the new column.
  /// Returns false (and changes nothing, not even the RNG stream) when the
  /// arena is full (words() == stride()), so a caller can tell a real
  /// append from a no-op. An exhaustive arena is always full.
  [[nodiscard]] bool appendWord(std::span<const std::uint64_t> cexBits,
                                int cexCount, util::Random& rng);

  /// Overwrites the low `cexCount` bits of active column `w` — bit j of
  /// `cexBits[i]` (parallel to the support array) is the j-th pattern's
  /// value of support entry i, as in appendWord — keeping the column's
  /// other bits, and simulates ONLY that column. Lets a caller grow a
  /// partly filled counterexample column one pattern at a time.
  /// Precondition: !exhaustive() (the enumeration is never overwritten).
  void refreshWord(std::size_t w, std::span<const std::uint64_t> cexBits,
                   int cexCount);

  /// Re-lays the arena over a new cone `order` on the same support,
  /// keeping every stored PI column (the pattern bank), and resimulates
  /// it. The slot table is sized to the manager's current node count, so
  /// nodes created since the previous layout become addressable. An
  /// exhaustive arena stays exhaustive.
  void relayout(std::span<const aig::NodeId> order);

  /// True when forcing node `forced` of the cone to the constant
  /// `value` changes node `root`'s words on some pattern where `care` is
  /// 1 — a concrete input pattern on which the rewrite forced := value
  /// is observable at `root`. One fanout pass per (forced, root) flips
  /// `forced` on every pattern, resimulates only its transitive fanout
  /// into a scratch arena (stopping at rows that come out unchanged) and
  /// caches the root's observability mask, so the other value of the
  /// same node costs one masked compare. Any arena change drops the
  /// cache. On an exhaustive arena a false answer proves the rewrite
  /// unobservable on every care pattern.
  [[nodiscard]] bool forcingChanges(aig::NodeId forced, bool value,
                                    aig::NodeId root, aig::Lit care);

  /// Recomputes every active column of every node from the stored PI
  /// words, node-major (per node, one contiguous SIMD-friendly word
  /// loop). The result must be
  /// bit-for-bit identical to the incrementally maintained state AND to
  /// resimulateAllReference(); tests use both as referees.
  void resimulateAll();

  /// Column-major recomputation (one simulateColumn per active column):
  /// the bit-exact referee for resimulateAll() (tests/test_sweep.cpp) and
  /// the micro-benchmark baseline (bench/micro_aig.cpp, cbq bench-par).
  void resimulateAllReference();

  /// Active signature words of node `n` (must be in the cone).
  [[nodiscard]] std::span<const std::uint64_t> of(aig::NodeId n) const {
    return {&arena_[slotOf_[n] * stride_], words_};
  }

  [[nodiscard]] bool inCone(aig::NodeId n) const {
    return n < slotOf_.size() && slotOf_[n] != kNoSlot;
  }

  // ----- care-masked comparisons ------------------------------------------
  // `care` is a literal of the arena (kTrue, or a cone node): only the
  // patterns on which it is 1 count. With care == kTrue every pattern
  // counts and the normalization is the plain one: complemented so that
  // bit 0 of word 0 is 0.

  /// True when node `n` takes `value` on every care pattern.
  [[nodiscard]] bool constantUnder(aig::NodeId n, bool value,
                                   aig::Lit care) const;

  /// Complement-normalized 64-bit mixed hash of the care-masked words
  /// plus the normalization phase (true = the signature was complemented
  /// so that its value on the first care pattern is 0).
  struct Key {
    std::uint64_t hash;
    bool phase;
  };
  [[nodiscard]] Key normalizedKey(aig::NodeId n, aig::Lit care) const;

  /// Exact equality of the care-masked, complement-normalized signatures
  /// (the collision referee behind hash-equal candidates).
  [[nodiscard]] bool equalNormalized(aig::NodeId a, bool phaseA,
                                     aig::NodeId b, bool phaseB,
                                     aig::Lit care) const;

  /// True when literal `b` is 1 on every pattern where literal `a` is 1
  /// (both literals of the arena: the constant, a support PI or a cone
  /// node). On an exhaustive arena the answer proves a ⇒ b; `b` = kFalse
  /// asks whether `a` is empty. On a random arena only a false answer is
  /// conclusive: some stored pattern refutes the implication.
  [[nodiscard]] bool impliesOnAll(aig::Lit a, aig::Lit b) const;

 private:
  friend struct ::cbq::audit::Access;

  static constexpr aig::NodeId kNoNode = 0xffffffffu;

  void simulateColumn(std::size_t w);
  /// Slot of order_[0]: the constant and the support PIs come first.
  [[nodiscard]] Slot firstAndSlot() const {
    return static_cast<Slot>(1 + supportNode_.size());
  }
  /// Fills obsMask_ with the patterns on which flipping `forced` flips
  /// `root`.
  void flipPass(aig::NodeId forced, aig::NodeId root);
  void dropObservability() { obsForced_ = obsRoot_ = kNoNode; }
  /// Word `w` of the care mask: the care literal's value per pattern.
  [[nodiscard]] std::uint64_t careWord(aig::Lit care, std::size_t w) const;
  void loadPiColumn(std::size_t w);

  const aig::Aig* aig_;
  std::vector<aig::NodeId> order_;
  std::vector<aig::VarId> support_;
  std::vector<aig::NodeId> supportNode_;  // PI node per support entry

  std::size_t stride_;  // reserved columns per slot
  std::size_t words_;   // active columns
  bool exhaustive_ = false;
  std::vector<Slot> slotOf_;          // NodeId -> arena slot (kNoSlot = out)
  std::vector<std::uint64_t> arena_;  // node-major, slot * stride_ + word
  std::vector<std::uint64_t> piArena_;  // support-major, i * stride_ + word

  // flipPass scratch: rows of the flipped fanout, valid for a slot only
  // while touched_[slot] == epoch_.
  std::vector<std::uint64_t> forced_;
  std::vector<std::uint32_t> touched_;
  std::uint32_t epoch_ = 0;
  // The last flipPass: `obsRoot_`'s patterns that flip with `obsForced_`.
  std::vector<std::uint64_t> obsMask_;
  aig::NodeId obsForced_ = kNoNode;
  aig::NodeId obsRoot_ = kNoNode;
};

}  // namespace cbq::sweep
