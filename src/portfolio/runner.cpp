#include "portfolio/runner.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "audit/audit.hpp"
#include "obs/tracer.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace cbq::portfolio {

namespace {

// Slice lengths for a session that shares its worker with rivals. A slice
// that committed no new bound was too short to reach the engine's next
// pause point and is doubled (up to the cap); one that committed
// kDemoteBounds or more is halved (down to the floor) so rivals
// interleave at finer grain.
constexpr double kSliceInitialSeconds = 0.05;
constexpr double kSliceMinSeconds = 0.0125;
constexpr double kSliceMaxSeconds = 0.8;
constexpr int kDemoteBounds = 8;

/// One engine's scheduling state. The session migrates between workers
/// across slices; the scheduler mutex hands it off.
struct Slot {
  std::unique_ptr<mc::Session> session;  ///< created on first slice
  double sliceSeconds = kSliceInitialSeconds;
  mc::Progress last;      ///< most recent resume() report
  int slices = 0;
  bool finished = false;  ///< session reported done, or was quarantined
  std::string error;      ///< what escaped (quarantined sessions only)
};

/// The scheduling loop: opens one session per engine on a private clone
/// of `net` and resumes the sessions on `workers` workers (the calling
/// thread is one of them) until a definitive verdict, every session is
/// done, or `budget` runs out.
PortfolioResult runSessions(const mc::Network& net,
                            const std::vector<const mc::Engine*>& engines,
                            int workers, const Budget& budget,
                            const PortfolioOptions& opts) {
  const std::size_t n = engines.size();
  std::vector<Slot> slots(n);

  // Engine-manager const reads stamp mutable scratch arenas, so every
  // session owns a private clone, built sequentially up front; a worker
  // touches a clone only while it holds that session. Cloning is still
  // engine-layer work (AIG growth): a blow-up fails every engine and the
  // problem degrades to Unknown, never aborts.
  std::vector<mc::Network> clones;
  clones.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i)
      clones.push_back(mc::cloneNetwork(net));
  } catch (...) {
    for (Slot& slot : slots) {
      slot.finished = true;
      slot.error = "network clone failed";
    }
  }

  // The winner cancels `stop`; sessions see it together with the
  // caller's token through `outer`.
  CancelToken stop(budget.token());
  const Budget outer = budget.withCancel(&stop);

  // Slots are protected by ownership transfer, not the mutex: a worker
  // that pops index i from the ready queue owns slots[i] exclusively
  // until it re-queues or retires it, including the lock-free resume.
  struct State {
    util::Mutex mu;
    util::CondVar cv;
    std::deque<std::size_t> ready CBQ_GUARDED_BY(mu);
    int winnerIdx CBQ_GUARDED_BY(mu) = -1;
    int inFlight CBQ_GUARDED_BY(mu) = 0;   ///< sessions resuming on workers
    std::size_t live CBQ_GUARDED_BY(mu) = 0;     ///< sessions not finished
    std::size_t workers CBQ_GUARDED_BY(mu) = 0;  ///< workers on the queue
  } st;
  // At most one worker per session; the caller is always one of them.
  const std::size_t nWorkers = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(workers, 1)), 1,
      std::max<std::size_t>(n, 1));
  {
    const util::MutexLock lock(st.mu);
    st.workers = nWorkers;
    for (std::size_t i = 0; i < n; ++i) {
      if (slots[i].finished) continue;
      st.ready.push_back(i);
      ++st.live;
    }
  }

  // Scheduler decisions feed the winner's registry at the end (the slots
  // own per-engine registries; these are cross-engine).
  obs::Metrics schedStats;

  auto worker = [&] {
    util::UniqueLock lock(st.mu);
    for (;;) {
      while (st.winnerIdx < 0 && st.ready.empty() && st.inFlight > 0)
        st.cv.wait(st.mu);
      if (st.winnerIdx >= 0 || st.ready.empty()) return;

      const std::size_t i = st.ready.front();
      st.ready.pop_front();
      ++st.inFlight;
      // The pause rule: a session is sliced only while another one is
      // waiting for a worker; otherwise it keeps the whole budget.
      const bool sliced = st.live > st.workers;
      lock.unlock();

      Slot& slot = slots[i];
      const std::string name = engines[i]->name();
      mc::Progress p;
      std::string error;
      // The exception barrier: a session blowing up (organic failure,
      // injected fault, audit violation, even a foreign exception type)
      // is quarantined — it leaves the rotation, the rivals go on.
      try {
        CBQ_OBS_SPAN("sched", name);
        if (!slot.session) slot.session = engines[i]->start(clones[i]);
        p = slot.session->resume(sliced ? outer.tightened(slot.sliceSeconds)
                                        : outer);
        // The independent referee, outside the lock so a deep replay
        // never stalls the other workers: a trace that does not replay
        // on the session's own network is never reported.
        if (opts.verifyCex && p.done &&
            p.result.verdict == mc::Verdict::Unsafe &&
            p.result.cex.has_value() &&
            !mc::replayHitsBad(clones[i], *p.result.cex)) {
          p.result.verdict = mc::Verdict::Unknown;
          p.result.stats.add("portfolio.cex_replay_failures");
        }
      } catch (const std::exception& e) {
        error = e.what();
        if (error.empty()) error = "unknown std::exception";
      } catch (...) {
        error = "non-standard exception";
      }

      if (opts.onProgress) {
        obs::ProgressEvent ev;
        ev.problem = net.name;
        ev.engine = name;
        if (!error.empty()) {
          ev.kind = "engine-failure";
          ev.detail = error;
        } else {
          ev.kind = "slice";
          if (p.done) ev.verdict = mc::toString(p.result.verdict);
          ev.bound = p.bound;
          ev.effort = static_cast<double>(p.effort);
          ev.effortDelta = static_cast<double>(p.effortDelta);
          ev.seconds = p.sliceSeconds;
          ev.advanced = p.advanced;
        }
        opts.onProgress(ev);
      }

      lock.lock();
      --st.inFlight;
      ++slot.slices;
      schedStats.add("sched.slice_grants");
      if (!error.empty()) {
        slot.finished = true;
        slot.error = std::move(error);
        schedStats.add("sched.quarantines");
      } else {
        schedStats.observe("sched.slice_seconds", p.sliceSeconds);
        const int boundDelta = p.bound - slot.last.bound;
        slot.last = std::move(p);
        if (slot.last.done) {
          slot.finished = true;
          if (slot.last.result.verdict != mc::Verdict::Unknown &&
              st.winnerIdx < 0) {
            st.winnerIdx = static_cast<int>(i);
            stop.cancel();  // tell mid-slice rivals to stop
          }
        } else {
          if (sliced && !slot.last.advanced) {
            slot.sliceSeconds =
                std::min(slot.sliceSeconds * 2.0, kSliceMaxSeconds);
            schedStats.add("sched.promotions");
          } else if (sliced && boundDelta >= kDemoteBounds) {
            slot.sliceSeconds =
                std::max(slot.sliceSeconds * 0.5, kSliceMinSeconds);
            schedStats.add("sched.demotions");
          }
          if (st.winnerIdx < 0 && !outer.exhausted()) st.ready.push_back(i);
        }
      }
      if (slot.finished) --st.live;
      st.cv.notifyAll();
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(nWorkers - 1);
  try {
    for (std::size_t t = 1; t < nWorkers; ++t)
      helpers.emplace_back([&worker, t] {
        obs::setThreadLabel("worker " + std::to_string(t));
        worker();
      });
  } catch (const std::system_error&) {
    // Thread exhaustion mid-spawn: the workers that did start (the
    // caller among them) share the queue, and the pause rule slices.
    const util::MutexLock lock(st.mu);
    st.workers = helpers.size() + 1;
  }
  worker();  // the caller is worker 0
  for (std::thread& t : helpers) t.join();

  // Post-join aggregation: single-threaded again, but winnerIdx is
  // guarded, so hold the (uncontended) lock while reading it.
  PortfolioResult out;
  out.runs.resize(n);
  const util::MutexLock lock(st.mu);
  for (std::size_t i = 0; i < n; ++i) {
    EngineRun& run = out.runs[i];
    const Slot& slot = slots[i];
    run.engine = engines[i]->name();
    run.verdict = slot.last.result.verdict;
    run.steps = slot.last.result.steps;
    run.seconds = slot.last.result.seconds;
    run.winner = static_cast<int>(i) == st.winnerIdx;
    run.cancelled = !slot.finished && st.winnerIdx >= 0;
    run.slices = slot.slices;
    run.failed = !slot.error.empty();
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
  return out;
}

/// Every entry path: preprocess `net` once under `budget`, resume the
/// engine sessions on the reduced problem, lift an Unsafe winner's trace
/// back and referee it on the original network.
PortfolioResult solve(const mc::Network& net,
                      const std::vector<const mc::Engine*>& engines,
                      int workers, const Budget& budget,
                      const PortfolioOptions& opts) {
  util::Timer wall;

  // Preprocessing failure containment: a pass blowing up costs us the
  // reduction, not the problem. Fall back to the identity preparation and
  // let the engines check the original network.
  prep::PreparedProblem prepared;
  try {
    prepared = prep::Pipeline(opts.prep).run(net, budget);
  } catch (const audit::AuditError&) {
    // NOT contained: an armed audit firing means the pipeline built a
    // structurally corrupt network. Falling back would mask the bug the
    // audit exists to surface — propagate on this (caller) thread so the
    // CLI can map it to its dedicated exit code.
    throw;
  } catch (...) {
    prepared = prep::PreparedProblem{};
    prepared.latchesBefore = net.numLatches();
    prepared.inputsBefore = net.numInputs();
    prepared.andsBefore = net.aig.numAnds();
    prepared.seconds = wall.seconds();
    prepared.stats.add("portfolio.prep_failures");
  }
  const mc::Network& problem = prepared.problem(net);

  if (opts.onProgress) {
    obs::ProgressEvent ev;
    ev.kind = "prep";
    ev.problem = net.name;
    ev.seconds = prepared.seconds;
    std::ostringstream detail;
    detail << prepared.latchesBefore << "L/" << prepared.andsBefore << "A -> "
           << problem.numLatches() << "L/" << problem.aig.numAnds() << "A";
    if (prepared.decided.has_value()) detail << " (decided)";
    ev.detail = detail.str();
    opts.onProgress(ev);
  }

  PortfolioResult out;
  if (prepared.decided.has_value()) {
    // The pipeline settled the verdict; no engine runs. The decided
    // trace is already in original-network variables.
    out.best.engine = "prep";
    out.best.verdict = *prepared.decided;
    out.best.cex = std::move(prepared.decidedCex);
  } else {
    // The sessions get what preprocessing left of the same budget, so
    // the whole-problem limit covers prep + engines.
    out = runSessions(problem, engines, workers, budget, opts);
    // Runs single-threaded after every worker joined: concurrent replays
    // on the shared original would race on the manager's scratch arenas.
    if (out.best.verdict == mc::Verdict::Unsafe && out.best.cex.has_value())
      out.best.cex = prepared.lifter().lift(std::move(*out.best.cex));
  }
  out.best.stats.merge(prepared.stats);
  // The referee on the ORIGINAL network (the sessions already refereed
  // on the reduced one). A decided Unsafe must come with a trace.
  if (opts.verifyCex)
    prep::demoteUnreplayableCex(net, out.best,
                                /*requireTrace=*/prepared.decided.has_value());

  out.prep.enabled = opts.prep.enabled;
  out.prep.decided = prepared.decided.has_value();
  out.prep.seconds = prepared.seconds;
  out.prep.latchesBefore = prepared.latchesBefore;
  out.prep.inputsBefore = prepared.inputsBefore;
  out.prep.andsBefore = prepared.andsBefore;
  out.prep.latchesAfter = problem.numLatches();
  out.prep.inputsAfter = problem.numInputs();
  out.prep.andsAfter = problem.aig.numAnds();
  out.prep.passes = std::move(prepared.passes);
  out.wallSeconds = wall.seconds();
  out.best.seconds = out.wallSeconds;

  if (opts.onProgress) {
    obs::ProgressEvent ev;
    ev.kind = "result";
    ev.problem = net.name;
    ev.engine = out.best.engine;
    ev.verdict = mc::toString(out.best.verdict);
    ev.seconds = out.wallSeconds;
    ev.bound = out.best.steps;
    if (out.allEnginesFailed) {
      ev.detail = "all engines failed";
    } else if (out.memLimitHit) {
      ev.detail = "rss ceiling hit";
    }
    opts.onProgress(ev);
  }
  return out;
}

}  // namespace

std::vector<std::string> defaultPortfolio() {
  return {"cbq-reach", "bdd-bwd", "bmc", "k-induction", "hybrid-reach"};
}

PortfolioRunner::PortfolioRunner(PortfolioOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.engines.empty()) opts_.engines = defaultPortfolio();
  for (const std::string& name : opts_.engines) {
    if (!mc::makeEngine(name))
      throw std::invalid_argument("unknown engine: " + name);
  }
}

PortfolioResult PortfolioRunner::run(const mc::Network& net) const {
  std::vector<std::unique_ptr<mc::Engine>> owned;
  std::vector<const mc::Engine*> engines;
  for (const std::string& name : opts_.engines) {
    owned.push_back(mc::makeEngine(name));
    engines.push_back(owned.back().get());
  }
  Budget budget(opts_.timeLimitSeconds, opts_.nodeLimit);
  budget.withRssLimit(opts_.rssLimitBytes);
  const int workers = opts_.schedule == ScheduleMode::Race
                          ? static_cast<int>(engines.size())
                          : opts_.sliceWorkers;
  return solve(net, engines, workers, budget, opts_);
}

}  // namespace cbq::portfolio

namespace cbq::prep {

mc::CheckResult checkWithPrep(const mc::Engine& engine,
                              const mc::Network& net, const PrepOptions& opts,
                              const portfolio::Budget& budget) {
  portfolio::PortfolioOptions popts;
  popts.prep = opts;
  portfolio::PortfolioResult res =
      portfolio::solve(net, {&engine}, /*workers=*/1, budget, popts);
  if (res.winner() == nullptr && !res.prep.decided) {
    // Nobody won: report the engine's own run (name, bound, counters)
    // rather than the anonymous portfolio Unknown.
    const portfolio::EngineRun& run = res.runs.front();
    res.best.engine = run.engine;
    res.best.steps = run.steps;
    res.best.stats.merge(run.stats);
  }
  return std::move(res.best);
}

}  // namespace cbq::prep
