#pragma once
// Central metrics registry — the one place engine/sweeper/prep/scheduler
// activity counters live.
//
// Replaces the former util::Stats bag: same counter/gauge surface
// (add/set/high/count/gauge/merge) so a registry rides inside every
// CheckResult exactly as before, plus
//   * latency histograms with fixed log2(nanosecond) buckets, so "how long
//     do fixpoint SAT checks take" is answerable without a profiler, and
//   * thread safety — the portfolio's session workers and batch workers
//     may all touch a registry concurrently.
// The JSON/CSV report writers and the `cbq bench` harness read counters
// exclusively from these registries; there is no side channel.
//
// Naming convention: dotted lowercase paths, subsystem first —
// sat.conflicts, merge.sat_checks, prep.coi.seconds, reach.compactions,
// sched.slice_grants, mem.aig_peak_nodes. The README's
// observability section keeps the catalogue.

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "util/sync.hpp"

namespace cbq::obs {

/// A thread-safe bag of named 64-bit counters, named double gauges and
/// named log2-bucket latency histograms. Copyable (snapshots the source
/// under its lock), so it can ride inside result records.
class Metrics {
 public:
  /// Histogram over log2(nanoseconds): bucket i counts observations with
  /// 2^(i-1) <= ns < 2^i (bucket 0: ns <= 1). 64 buckets cover every
  /// representable duration.
  struct Histogram {
    static constexpr std::size_t kBuckets = 64;
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    double sum = 0.0;  ///< seconds
    double max = 0.0;  ///< seconds

    void record(double seconds);
    void merge(const Histogram& other);
  };

  Metrics() = default;
  Metrics(const Metrics& other);
  Metrics& operator=(const Metrics& other);

  /// Adds `delta` to counter `name` (creating it at zero).
  void add(const std::string& name, std::int64_t delta = 1);

  /// Sets gauge `name` to `value` (last write wins).
  void set(const std::string& name, double value);

  /// Keeps the maximum ever seen for gauge `name`.
  void high(const std::string& name, double value);

  /// Records one latency sample (in seconds) into histogram `name`.
  void observe(const std::string& name, double seconds);

  /// Counter value; zero when never touched.
  [[nodiscard]] std::int64_t count(const std::string& name) const;

  /// Gauge value; zero when never touched.
  [[nodiscard]] double gauge(const std::string& name) const;

  /// Histogram snapshot; empty (count 0) when never touched.
  [[nodiscard]] Histogram histogram(const std::string& name) const;

  /// Merges another registry into this one: counters add, gauges max,
  /// histograms bucket-wise add.
  void merge(const Metrics& other);

  void clear();

  /// Snapshots (copies — the registry may be written concurrently).
  [[nodiscard]] std::map<std::string, std::int64_t> counters() const;
  [[nodiscard]] std::map<std::string, double> gauges() const;
  [[nodiscard]] std::map<std::string, Histogram> histograms() const;

  /// Full registry dump as one JSON object: {"counters": {...},
  /// "gauges": {...}, "histograms": {name: {"count": n, "sum_seconds": s,
  /// "max_seconds": m, "buckets": [[ns_upper_bound, count], ...]}}}.
  /// Histogram buckets with zero count are omitted.
  void writeJson(std::ostream& out) const;

  friend std::ostream& operator<<(std::ostream& os, const Metrics& m);

 private:
  mutable util::Mutex mu_;
  std::map<std::string, std::int64_t> counters_ CBQ_GUARDED_BY(mu_);
  std::map<std::string, double> gauges_ CBQ_GUARDED_BY(mu_);
  std::map<std::string, Histogram> histograms_ CBQ_GUARDED_BY(mu_);
};

/// The process-wide registry for cross-cutting infrastructure that has no
/// per-problem result record to write into: tracer drops, service-level
/// totals. Per-run metrics belong in the
/// CheckResult's registry, not here.
Metrics& globalMetrics();

}  // namespace cbq::obs
