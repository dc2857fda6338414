#pragma once
// Cooperative execution budgets for engine runs.
//
// A Budget bundles the three ways a run can be told to stop early:
//   * an external CancelToken — flipped by the portfolio runner the moment
//     a rival engine produces a definitive verdict;
//   * a wall-clock deadline;
//   * a node limit on the engine's dominant data structure (AIG cone size
//     for the circuit engines, live nodes for the BDD engines).
// It is an engine session's only clock: engines poll exhausted() in every
// fixpoint / unrolling / enumeration loop, handing an interrupt callback to
// the SAT solvers they create so cancellation latency is bounded by a few
// hundred conflicts rather than one engine iteration.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>

#include "obs/memory.hpp"

namespace cbq::portfolio {

/// A shared stop flag. One token is observed by every engine racing on a
/// problem; cancel() is sticky until reset(). A token built over a
/// `parent` also reads as cancelled while the parent is: how the
/// portfolio stops its own sessions without dropping the caller's token.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(const CancelToken* parent) : parent_(parent) {}
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void cancel() noexcept { flag_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->cancelled());
  }
  void reset() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
  const CancelToken* const parent_ = nullptr;
};

/// Immutable view of a run's resource envelope. Copyable; copies share the
/// (externally owned) CancelToken, which must outlive every copy.
class Budget {
 public:
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady,
                "deadlines must come from a monotonic clock");

  /// Unlimited: never expires, never cancelled, no node bound.
  Budget() = default;

  /// `deadlineSeconds` <= 0 means no deadline; `nodeLimit` 0 means no
  /// node bound. The deadline clock starts now.
  explicit Budget(double deadlineSeconds, std::size_t nodeLimit = 0,
                  const CancelToken* cancel = nullptr)
      : nodeLimit_(nodeLimit), cancel_(cancel) {
    if (deadlineSeconds > 0.0)
      deadline_ = Clock::now() + toDuration(deadlineSeconds);
  }

  /// Installs a soft RSS ceiling (bytes; 0 = none): when the process's
  /// CURRENT resident set crosses it, exhausted() turns true and every
  /// engine polling this budget (or any tightened() copy — the ceiling
  /// state is shared across copies) bails out to Unknown through the same
  /// cooperative path as a deadline, instead of letting the kernel OOM-
  /// kill the worker. "Soft" because it is polled: the check is rate-
  /// limited to every kMemPollStride-th exhausted() call, so overshoot is
  /// bounded by what an engine allocates between polls. Returns *this for
  /// builder-style use.
  Budget& withRssLimit(std::size_t rssLimitBytes) {
    rssLimit_ = rssLimitBytes;
    if (rssLimitBytes != 0 && mem_ == nullptr)
      mem_ = std::make_shared<MemState>();
    return *this;
  }

  /// The tighter of this budget and a fresh allowance of `seconds` from
  /// now — how the scheduler cuts a slice from the problem's budget.
  /// Non-positive `seconds` adds no constraint.
  [[nodiscard]] Budget tightened(double seconds) const {
    Budget b = *this;
    if (seconds > 0.0) {
      const Clock::time_point d = Clock::now() + toDuration(seconds);
      if (d < b.deadline_) b.deadline_ = d;
    }
    return b;
  }

  /// This budget observed through `cancel` instead of its own token; the
  /// deadline, node limit and RSS ceiling stay shared.
  [[nodiscard]] Budget withCancel(const CancelToken* cancel) const {
    Budget b = *this;
    b.cancel_ = cancel;
    return b;
  }

  [[nodiscard]] bool cancelled() const {
    return cancel_ != nullptr && cancel_->cancelled();
  }
  [[nodiscard]] bool timedOut() const {
    return deadline_ != Clock::time_point::max() && Clock::now() >= deadline_;
  }
  /// The per-loop poll: external cancel, deadline, or RSS ceiling.
  [[nodiscard]] bool exhausted() const {
    return cancelled() || timedOut() || memExceeded();
  }

  /// The soft RSS ceiling check. Sticky once tripped (shared across every
  /// copy of this budget, so the scheduler sees the diagnostic even when
  /// an engine's tightened() copy did the poll); the actual /proc read is
  /// rate-limited by a shared call counter.
  [[nodiscard]] bool memExceeded() const {
    if (rssLimit_ == 0 || mem_ == nullptr) return false;
    if (mem_->hit.load(std::memory_order_relaxed)) return true;
    if ((mem_->polls.fetch_add(1, std::memory_order_relaxed) %
         kMemPollStride) != 0)
      return false;
    const std::uint64_t rss = obs::currentRssBytes();
    if (rss > rssLimit_) {
      mem_->hit.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// True when the ceiling ever tripped on this budget or any copy.
  [[nodiscard]] bool memLimitHit() const {
    return mem_ != nullptr && mem_->hit.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t rssLimit() const { return rssLimit_; }

  [[nodiscard]] bool nodesExceeded(std::size_t liveNodes) const {
    return nodeLimit_ != 0 && liveNodes > nodeLimit_;
  }
  [[nodiscard]] std::size_t nodeLimit() const { return nodeLimit_; }
  [[nodiscard]] const CancelToken* token() const { return cancel_; }

 private:
  static constexpr std::uint64_t kMemPollStride = 64;

  /// Shared across copies (tightened() slices, per-engine copies): one
  /// problem has ONE ceiling, and one trip stops every engine on it.
  struct MemState {
    std::atomic<std::uint64_t> polls{0};
    std::atomic<bool> hit{false};
  };

  static Clock::duration toDuration(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  Clock::time_point deadline_ = Clock::time_point::max();
  std::size_t nodeLimit_ = 0;
  std::size_t rssLimit_ = 0;
  const CancelToken* cancel_ = nullptr;
  std::shared_ptr<MemState> mem_;
};

}  // namespace cbq::portfolio
