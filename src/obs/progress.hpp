#pragma once
// Live progress streaming — NDJSON events on a stream (stderr under
// `--progress`) so long batch/serve-style runs show per-problem
// bound/frame/effort in real time instead of only post-mortem.
//
// Producers (the portfolio runner and its session workers) fill a
// ProgressEvent at natural boundaries — prep done, slice finished, engine
// failed, final verdict — and hand it to a ProgressFn. The CLI installs a
// ProgressStreamer; tests install a capturing lambda.
//
// Event kinds and fields are documented in README "Observability"
// (NDJSON progress schema). Fields are stable: add, don't rename.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "util/sync.hpp"

namespace cbq::obs {

/// One progress datum. `kind` says which fields are meaningful:
///   "prep"    — problem, seconds, detail (pass summary)
///   "slice"   — problem, engine, bound, effort, effortDelta, seconds
///               (slice wall time), advanced; verdict once the session
///               is done
///   "engine-failure" — an engine threw and was quarantined: problem,
///               engine, detail (what escaped)
///   "result"  — final verdict for a problem: problem, verdict, engine,
///               seconds, bound
/// Verdicts are strings ("SAFE", "UNSAFE", "UNKNOWN") to keep obs free of
/// engine-layer types.
struct ProgressEvent {
  std::string kind;
  std::string problem;
  std::string engine;
  std::string verdict;
  std::string detail;
  std::int64_t bound = -1;        ///< reached bound/frame, -1 = n/a
  double effort = 0.0;            ///< cumulative SAT effort score
  double effortDelta = 0.0;       ///< effort spent in this slice
  double seconds = 0.0;           ///< wall seconds for this event's scope
  bool advanced = false;          ///< did the slice make bound progress
};

using ProgressFn = std::function<void(const ProgressEvent&)>;

/// Serialises events as one JSON object per line. Thread-safe: every
/// session worker shares one streamer. Lines are flushed
/// immediately so `cbq batch --progress 2> >(jq .)` streams live.
class ProgressStreamer {
 public:
  explicit ProgressStreamer(std::ostream& out) : out_(&out) {}

  void emit(const ProgressEvent& ev);

  /// Adapter for PortfolioOptions::onProgress.
  ProgressFn fn() {
    return [this](const ProgressEvent& ev) { emit(ev); };
  }

 private:
  util::Mutex mu_;
  std::ostream* const out_ CBQ_PT_GUARDED_BY(mu_);
};

}  // namespace cbq::obs
