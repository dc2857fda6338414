#include "portfolio/time_slice.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/tracer.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace cbq::portfolio {

namespace {

/// One engine's scheduling state. The session migrates between worker
/// threads across slices; the scheduler mutex hands it off.
struct Slot {
  std::unique_ptr<mc::Engine> engine;
  std::unique_ptr<mc::Session> session;  ///< created on first slice
  double sliceSeconds = 0.0;
  mc::Progress last;       ///< most recent resume() report
  int slices = 0;
  bool finished = false;   ///< session reported done (or blew up)
  bool threw = false;      ///< engine exception; verdict stays Unknown
  std::string error;       ///< what escaped (threw only)
};

}  // namespace

TimeSliceScheduler::TimeSliceScheduler(PortfolioOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.engines.empty()) opts_.engines = defaultPortfolio();
  for (const std::string& name : opts_.engines) {
    if (!mc::makeEngine(name))
      throw std::invalid_argument("unknown engine: " + name);
  }
  if (opts_.sliceWorkers <= 0) opts_.sliceWorkers = 1;
  if (opts_.sliceInitialSeconds <= 0.0) opts_.sliceInitialSeconds = 0.05;
  if (opts_.sliceMinSeconds <= 0.0) opts_.sliceMinSeconds = 0.0125;
  opts_.sliceMaxSeconds =
      std::max(opts_.sliceMaxSeconds, opts_.sliceInitialSeconds);
}

PortfolioResult TimeSliceScheduler::run(const mc::Network& net) const {
  util::Timer wall;
  const std::size_t n = opts_.engines.size();

  PortfolioResult out;
  out.runs.resize(n);

  // Engine-manager const reads stamp mutable scratch arenas, so every
  // session owns a private clone, built sequentially up front. (A slice
  // worker only touches a clone while holding that session's queue slot,
  // so the clone also serves cross-thread session migration.) Cloning is
  // pre-engine but still engine-layer work (AIG growth): a blow-up here
  // degrades the whole problem to Unknown, never aborts.
  std::vector<mc::Network> clones;
  clones.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i)
      clones.push_back(mc::cloneNetwork(net));
  } catch (...) {
    for (std::size_t i = 0; i < n; ++i) {
      out.runs[i].engine = opts_.engines[i];
      out.runs[i].failed = true;
      out.runs[i].error = "network clone failed";
    }
    out.engineFailures = static_cast<int>(n);
    out.allEnginesFailed = true;
    out.best.engine = "portfolio";
    out.best.verdict = mc::Verdict::Unknown;
    out.best.stats.add("portfolio.all_engines_failed");
    out.best.stats.add("portfolio.engine_failures", out.engineFailures);
    out.wallSeconds = wall.seconds();
    out.best.seconds = out.wallSeconds;
    return out;
  }

  CancelToken token;
  Budget outer(opts_.timeLimitSeconds, opts_.nodeLimit, &token);
  outer.withRssLimit(opts_.rssLimitBytes);

  // Slots are protected by ownership transfer, not the mutex: a worker
  // that pops index i from the ready queue owns slots[i] exclusively
  // until it re-queues or retires it, including the lock-free resume.
  // The annotated SliceState below is what the mutex actually guards.
  std::vector<Slot> slots(n);
  struct SliceState {
    util::Mutex mu;
    util::CondVar cv;
    std::deque<std::size_t> ready CBQ_GUARDED_BY(mu);
    int winnerIdx CBQ_GUARDED_BY(mu) = -1;
    bool stop CBQ_GUARDED_BY(mu) = false;   ///< winner found: stop granting
    int inFlight CBQ_GUARDED_BY(mu) = 0;    ///< sessions resuming on workers
  } st;
  {
    const util::MutexLock lock(st.mu);
    for (std::size_t i = 0; i < n; ++i) {
      slots[i].engine = mc::makeEngine(opts_.engines[i]);
      slots[i].sliceSeconds = opts_.sliceInitialSeconds;
      st.ready.push_back(i);
    }
  }

  // Scheduler decisions feed the winner's registry at the end (the slots
  // own per-engine registries; these are cross-engine).
  obs::Metrics schedStats;

  auto worker = [&] {
    util::UniqueLock lock(st.mu);
    for (;;) {
      while (!(st.stop || !st.ready.empty() || st.inFlight == 0))
        st.cv.wait(st.mu);
      if (st.stop || st.ready.empty()) return;  // drained or race decided

      const std::size_t i = st.ready.front();
      st.ready.pop_front();
      Slot& slot = slots[i];
      ++st.inFlight;
      lock.unlock();

      mc::Progress p;
      bool threw = false;
      std::string error;
      // The exception barrier: a session blowing up mid-slice (organic
      // failure, injected fault, even a foreign exception type) is
      // quarantined — the slot leaves the rotation, the rotation goes on.
      try {
        CBQ_OBS_SPAN("sched", opts_.engines[i]);
        if (!slot.session)
          slot.session = slot.engine->start(clones[i]);
        // The slice: the whole-problem budget (token + deadline + node
        // limit) tightened to this session's current slice length.
        p = slot.session->resume(outer.tightened(slot.sliceSeconds));
      } catch (const std::exception& e) {
        threw = true;
        error = e.what();
        if (error.empty()) error = "unknown std::exception";
      } catch (...) {
        threw = true;
        error = "non-standard exception";
      }
      if (threw && opts_.onProgress) {
        obs::ProgressEvent ev;
        ev.kind = "engine-failure";
        ev.problem = net.name;
        ev.engine = opts_.engines[i];
        ev.detail = error;
        opts_.onProgress(ev);
      }
      if (!threw && opts_.onProgress) {
        obs::ProgressEvent ev;
        ev.kind = "slice";
        ev.problem = net.name;
        ev.engine = opts_.engines[i];
        if (p.done) ev.verdict = mc::toString(p.result.verdict);
        ev.bound = p.bound;
        ev.effort = static_cast<double>(p.effort);
        ev.effortDelta = static_cast<double>(p.effortDelta);
        ev.seconds = p.sliceSeconds;
        ev.advanced = p.advanced;
        opts_.onProgress(ev);
      }

      // Referee outside the lock: a deep counterexample replay must not
      // stall the other workers. The slot's clone is still private here.
      bool replayRejected = false;
      if (!threw && p.done && opts_.verifyCex &&
          p.result.verdict == mc::Verdict::Unsafe &&
          p.result.cex.has_value())
        replayRejected = !mc::replayHitsBad(clones[i], *p.result.cex);

      lock.lock();
      --st.inFlight;
      ++slot.slices;
      schedStats.add("sched.slice_grants");
      if (!threw) schedStats.observe("sched.slice_seconds", p.sliceSeconds);
      if (threw) {
        // Quarantine: the slot never re-enters the ready queue, so the
        // survivors keep the schedule; its verdict stays Unknown.
        slot.finished = true;
        slot.threw = true;
        slot.error = std::move(error);
        slot.last.result.stats.add("portfolio.engine_failures");
        schedStats.add("sched.quarantines");
      } else {
        const int boundDelta = p.bound - slot.last.bound;
        slot.last = std::move(p);
        if (slot.last.done) {
          slot.finished = true;
          bool definitive =
              slot.last.result.verdict != mc::Verdict::Unknown;
          if (replayRejected) {
            // The independent referee rejected the trace: never report it.
            slot.last.result.verdict = mc::Verdict::Unknown;
            slot.last.result.stats.add("portfolio.cex_replay_failures");
            definitive = false;
          }
          if (definitive && st.winnerIdx < 0) {
            st.winnerIdx = static_cast<int>(i);
            token.cancel();  // tell mid-slice rivals to stop
            st.stop = true;
          }
        } else {
          // Adaptive slice length from the telemetry: no bound committed
          // means the slice was too short to reach the engine's next
          // pause point — promote; many bounds per slice means the
          // engine can be interleaved at finer grain — demote.
          if (!slot.last.advanced) {
            slot.sliceSeconds = std::min(slot.sliceSeconds * 2.0,
                                         opts_.sliceMaxSeconds);
            schedStats.add("sched.promotions");
          } else if (boundDelta >= 8) {
            slot.sliceSeconds = std::max(slot.sliceSeconds * 0.5,
                                         opts_.sliceMinSeconds);
            schedStats.add("sched.demotions");
          }
          if (!st.stop && !outer.exhausted()) st.ready.push_back(i);
        }
      }
      st.cv.notifyAll();
    }
  };

  const int nWorkers =
      std::max(1, std::min<int>(opts_.sliceWorkers, static_cast<int>(n)));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nWorkers));
  try {
    for (int t = 0; t < nWorkers; ++t)
      threads.emplace_back([&worker, t] {
        obs::setThreadLabel("slice worker " + std::to_string(t));
        worker();
      });
  } catch (const std::system_error&) {
    // Thread exhaustion mid-spawn: the workers already running finish the
    // queue (slice mode never needs more than one).
  }
  if (threads.empty()) worker();  // degenerate fallback: run inline
  for (std::thread& t : threads) t.join();

  // Post-join aggregation: single-threaded again, but winnerIdx is
  // guarded, so hold the (uncontended) lock while reading it.
  const util::MutexLock lock(st.mu);
  for (std::size_t i = 0; i < n; ++i) {
    EngineRun& run = out.runs[i];
    const Slot& slot = slots[i];
    run.engine = opts_.engines[i];
    run.verdict = slot.last.result.verdict;
    run.steps = slot.last.result.steps;
    run.seconds = slot.last.result.seconds;
    run.winner = static_cast<int>(i) == st.winnerIdx;
    run.cancelled = !slot.finished && st.winnerIdx >= 0;
    run.slices = slot.slices;
    run.failed = slot.threw;
    run.error = slot.error;
    run.stats = slot.last.result.stats;
    if (run.cancelled) schedStats.add("sched.cancellations");
    if (run.failed) ++out.engineFailures;
  }
  out.allEnginesFailed = out.engineFailures == static_cast<int>(n) && n > 0;
  out.memLimitHit = outer.memLimitHit();

  if (st.winnerIdx >= 0) {
    out.best =
        std::move(slots[static_cast<std::size_t>(st.winnerIdx)].last.result);
    // Definitive losers that disagree with the winner are a soundness bug
    // in some engine; surface it in the stats rather than hiding it.
    for (const EngineRun& run : out.runs) {
      if (!run.winner && run.verdict != mc::Verdict::Unknown &&
          run.verdict != out.best.verdict)
        out.best.stats.add("portfolio.verdict_conflicts");
    }
  } else {
    out.best.engine = "portfolio";
    out.best.verdict = mc::Verdict::Unknown;
    if (out.allEnginesFailed)
      out.best.stats.add("portfolio.all_engines_failed");
  }
  if (out.engineFailures > 0)
    out.best.stats.add("portfolio.engine_failures", out.engineFailures);
  if (out.memLimitHit) out.best.stats.add("portfolio.mem_limit_hits");
  out.best.stats.merge(schedStats);
  out.wallSeconds = wall.seconds();
  out.best.seconds = out.wallSeconds;
  return out;
}

}  // namespace cbq::portfolio
