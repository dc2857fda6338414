#pragma once
// Shared worker pool for intra-problem parallelism.
//
// Everything parallel above this layer (PortfolioRunner's session workers,
// BatchScheduler) is one-thread-per-session or one-thread-per-problem;
// this pool is the operator-level counterpart: a static set of workers
// that split ONE data-parallel loop (signature simulation strata, class
// hashing shards, per-latch cone traversals) across cores.
//
// Design constraints, in priority order:
//
//  1. Determinism. parallelFor() only partitions an index range; callers
//     must write disjoint slots per index, so the result is bit-identical
//     at any thread count (enforced by tests/test_parallel.cpp). Nothing
//     in the pool reorders observable effects.
//  2. Zero cost when serial. With one thread (or a range below the grain)
//     the loop body runs inline on the caller — no locks, no allocation,
//     no wakeups — so `--par-threads 1` costs the small-circuit hot loop
//     nothing.
//  3. No oversubscription. The pool runs at most one parallel region at a
//     time: a region that arrives while another is in flight (two batch
//     workers preprocessing concurrently, or a nested loop) simply runs
//     inline on its caller thread. One pool therefore IS the global
//     thread budget — engine-level and intra-problem parallelism share
//     it without ever stacking thread counts multiplicatively.
//
// Cancellation: the pool itself never blocks on user code between chunk
// boundaries; loop bodies that honour a CancelToken poll it per chunk and
// return early, and the join barrier completes as soon as every claimed
// chunk has returned.

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace cbq::util {

class ThreadPool {
 public:
  /// A pool with `threads` total lanes of parallelism, including the
  /// calling thread: `threads - 1` workers are spawned. `threads <= 1`
  /// spawns nothing and every parallelFor runs inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + the caller).
  [[nodiscard]] int threads() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Loop body: processes `[begin, end)`. `lane` identifies the executing
  /// lane in [0, threads()) — stable per thread within one parallelFor —
  /// so bodies can keep per-lane scratch (visited stamps, local hash
  /// maps) without locking. Chunks are claimed dynamically, so a lane may
  /// process several non-adjacent chunks.
  using Body = std::function<void(std::size_t begin, std::size_t end,
                                  int lane)>;

  /// Splits `[0, n)` into chunks of at least `grain` indices and runs
  /// `body` over them on the workers plus the calling thread, returning
  /// when all of `[0, n)` has been processed. Runs inline (single chunk,
  /// lane 0) when the pool is serial, the range is below 2 * grain, or
  /// another parallel region is already in flight (see the
  /// no-oversubscription note above). The first exception thrown by any
  /// chunk is rethrown on the caller after the barrier.
  void parallelFor(std::size_t n, std::size_t grain, const Body& body);

 private:
  struct Job {
    const Body* body = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 0;           ///< indices per chunk
    std::size_t numChunks = 0;
    std::atomic<std::size_t> next{0};  ///< next unclaimed chunk
    std::atomic<std::size_t> done{0};  ///< chunks fully processed
    std::atomic<int> active{0};        ///< workers inside runChunks
    Mutex errMu;                       ///< job-local: thread-safety
                                       ///< attributes cannot name the
                                       ///< owning pool's mutex_ from a
                                       ///< nested struct
    std::exception_ptr error CBQ_GUARDED_BY(errMu);  ///< first failure
  };

  void workerLoop(int lane);
  void runChunks(Job& job, int lane);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar wake_;    ///< workers wait for a new job
  CondVar joined_;  ///< caller waits for chunk completion
  Job* job_ CBQ_GUARDED_BY(mutex_) = nullptr;  ///< current job
  std::uint64_t jobSeq_ CBQ_GUARDED_BY(mutex_) = 0;  ///< wakes workers
  std::atomic<bool> busy_{false};  ///< a parallel region is in flight
  bool stop_ CBQ_GUARDED_BY(mutex_) = false;
};

}  // namespace cbq::util
