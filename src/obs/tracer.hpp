#pragma once
// Span tracer — per-thread ring buffers of timed spans, flushed on demand
// to Chrome trace-event JSON (chrome://tracing / Perfetto).
//
// Design constraints, in priority order:
//
//  1. Near-zero overhead when disabled. CBQ_OBS_SPAN compiles to one
//     relaxed atomic load; no allocation, no clock read, no branch taken.
//     A build with -DCBQ_OBS=OFF compiles the macro away entirely (the
//     CI overhead gate compares the two).
//  2. No locks on the hot path shared between threads. Each thread owns a
//     ring buffer; recording a span locks only that buffer's private
//     mutex (uncontended except during a concurrent flush). When the ring
//     is full the oldest events are overwritten and a drop counter ticks —
//     tracing never blocks or aborts the traced run.
//  3. Static-lifetime categories, copied names. The category must be a
//     string literal (it is stored by pointer); the span name is copied
//     into a fixed-size field, so dynamic names (engine names, file
//     names) are safe but truncated past 47 bytes.
//
// Span timestamps come from steady_clock (wall-clock jumps must not
// corrupt a trace), anchored at process start so Chrome's timeline starts
// near zero.
//
// Categories in use: prep, engine, sat, sweep, quant, synth, bdd, sched —
// one Perfetto track per thread (worker lane), colored by category. See
// README "Observability".

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string_view>

namespace cbq::obs {

namespace detail {
extern std::atomic<bool> g_traceEnabled;

/// Nanoseconds since the process trace anchor (steady clock).
std::int64_t traceNowNs();

/// Appends one finished span to the calling thread's ring buffer.
void recordSpan(const char* category, const char* name,
                std::int64_t startNs, std::int64_t endNs);
}  // namespace detail

/// True while spans are being captured.
[[nodiscard]] inline bool tracingEnabled() {
  return detail::g_traceEnabled.load(std::memory_order_relaxed);
}

/// Starts capturing spans. `perThreadCapacity` bounds each thread's ring
/// buffer (events beyond it overwrite the oldest). Buffers from a
/// previous capture are cleared.
void enableTracing(std::size_t perThreadCapacity = 1 << 16);

/// Stops capturing. Already-recorded events stay available for
/// writeChromeTrace until the next enableTracing()/clearTrace().
void disableTracing();

/// Drops every recorded event (buffers stay registered).
void clearTrace();

/// Labels the calling thread's track in the trace viewer ("worker 1",
/// "worker 2", ...). Cheap; callable whether or not tracing is
/// enabled (the label sticks for the thread's lifetime).
void setThreadLabel(std::string_view label);

/// Writes every buffered span as Chrome trace-event JSON ("X" complete
/// events, one pid, one tid per thread, thread_name metadata). Loadable
/// in chrome://tracing and Perfetto. Thread-safe; typically called after
/// disableTracing().
void writeChromeTrace(std::ostream& out);

struct TraceStats {
  std::size_t events = 0;   ///< spans currently buffered
  std::size_t dropped = 0;  ///< spans overwritten by ring wrap
  std::size_t threads = 0;  ///< thread buffers registered
};
[[nodiscard]] TraceStats traceStats();

/// RAII span: records [construction, destruction) on the calling thread.
/// Construct through CBQ_OBS_SPAN so -DCBQ_OBS=OFF builds erase the site.
class Span {
 public:
  Span(const char* category, std::string_view name) {
    if (tracingEnabled()) [[unlikely]]
      begin(category, name);
  }
  ~Span() {
    if (active_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* category, std::string_view name) {
    cat_ = category;
    const std::size_t n =
        name.size() < sizeof(name_) - 1 ? name.size() : sizeof(name_) - 1;
    std::memcpy(name_, name.data(), n);
    name_[n] = '\0';
    start_ = detail::traceNowNs();
    active_ = true;
  }
  void end() {
    detail::recordSpan(cat_, name_, start_, detail::traceNowNs());
  }

  const char* cat_ = nullptr;
  std::int64_t start_ = 0;
  bool active_ = false;
  char name_[48];
};

}  // namespace cbq::obs

#define CBQ_OBS_CONCAT2(a, b) a##b
#define CBQ_OBS_CONCAT(a, b) CBQ_OBS_CONCAT2(a, b)

#if defined(CBQ_NO_OBS)
// Observability compiled out (the CI overhead-gate baseline build).
#define CBQ_OBS_SPAN(category, name) ((void)0)
#else
/// Opens a RAII span for the rest of the enclosing scope:
///   CBQ_OBS_SPAN("sweep", "refine-round");
/// `category` must be a string literal; `name` may be dynamic (copied).
#define CBQ_OBS_SPAN(category, name) \
  ::cbq::obs::Span CBQ_OBS_CONCAT(cbqObsSpan_, __LINE__)(category, name)
#endif
