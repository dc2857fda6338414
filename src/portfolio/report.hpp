#pragma once
// Batch result serialization: machine-readable JSON (full per-engine
// detail) and spreadsheet-friendly CSV (one row per problem).

#include <iosfwd>
#include <string>

#include "portfolio/scheduler.hpp"

namespace cbq::portfolio {

/// Provenance header for committed report files: which binary, which
/// configuration, which host produced these numbers. `timestamp` is the
/// one legitimate wall-clock field in the codebase (it identifies the
/// run, it never measures a duration).
struct RunInfo {
  std::string command;      ///< the CLI invocation, argv joined
  std::string gitDescribe;  ///< obs::gitDescribe() of the binary
  std::string timestamp;    ///< ISO-8601 UTC at run start
  int jobs = 1;             ///< batch worker threads
  unsigned hostThreads = 0; ///< std::thread::hardware_concurrency()
  std::string schedule;     ///< "race" or "slice"

  /// Snapshot of the current process/build (command left empty).
  [[nodiscard]] static RunInfo capture();

  /// The header as one JSON object (no trailing newline).
  void writeJson(std::ostream& out) const;
};

/// Full summary as a single JSON document (hand-rolled, no dependencies):
/// optional "run" provenance header, totals, then one object per problem
/// with its per-engine runs and a "mem" high-water object.
void writeJson(const BatchSummary& summary, std::ostream& out,
               const RunInfo* run = nullptr);

/// One header row + one row per problem (effort columns aggregate the
/// solver counters of every engine that ran; prep_* columns report the
/// post-preprocessing shape; mem columns are per-problem high-water
/// marks — peak RSS is process-wide and monotone across a batch):
/// name,path,verdict,winner,steps,seconds,latches,inputs,ands,
/// prep_seconds,prep_latches,prep_inputs,prep_ands,
/// propagations,decisions,conflicts,
/// peak_rss_mb,aig_peak_nodes,bdd_peak_nodes,error
void writeCsv(const BatchSummary& summary, std::ostream& out);

}  // namespace cbq::portfolio
