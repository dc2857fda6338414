#include "portfolio/runner.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "audit/audit.hpp"
#include "obs/tracer.hpp"
#include "portfolio/time_slice.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cbq::portfolio {

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
  util::Timer wall;

  // Preprocessing: once per problem, before any engine starts, bounded
  // by the same whole-problem time limit the engines get (the remainder
  // is what the schedulers may spend). The schedulers then clone the
  // (possibly reduced) problem per worker. A parThreads budget > 1
  // equips the pipeline with a per-run worker pool unless the caller
  // already shares one (the CLI creates a single process-wide pool).
  prep::PrepOptions prepOpts = opts_.prep;
  std::unique_ptr<util::ThreadPool> ownPool;
  if (prepOpts.pool == nullptr && opts_.parThreads > 1) {
    ownPool = std::make_unique<util::ThreadPool>(opts_.parThreads);
    prepOpts.pool = ownPool.get();
  }
  // Preprocessing failure containment: a pass blowing up costs us the
  // reduction, not the problem. Fall back to the identity preparation and
  // let the engines check the original network.
  prep::PreparedProblem prepared;
  try {
    prepared = prep::Pipeline(prepOpts).run(
        net, Budget(opts_.timeLimitSeconds)
                 .withRssLimit(opts_.rssLimitBytes));
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

  if (opts_.onProgress) {
    obs::ProgressEvent ev;
    ev.kind = "prep";
    ev.problem = net.name;
    ev.seconds = prepared.seconds;
    std::ostringstream detail;
    detail << prepared.latchesBefore << "L/" << prepared.andsBefore << "A -> "
           << problem.numLatches() << "L/" << problem.aig.numAnds() << "A";
    if (prepared.decided.has_value()) detail << " (decided)";
    ev.detail = detail.str();
    opts_.onProgress(ev);
  }

  PrepSummary summary;
  summary.enabled = opts_.prep.enabled;
  summary.decided = prepared.decided.has_value();
  summary.seconds = prepared.seconds;
  summary.latchesBefore = prepared.latchesBefore;
  summary.inputsBefore = prepared.inputsBefore;
  summary.andsBefore = prepared.andsBefore;
  summary.latchesAfter = problem.numLatches();
  summary.inputsAfter = problem.numInputs();
  summary.andsAfter = problem.aig.numAnds();
  summary.passes = prepared.passes;

  if (prepared.decided.has_value()) {
    // The pipeline settled the verdict; no engine runs. The decided
    // trace is already in original-network variables — referee it there.
    PortfolioResult out;
    out.prep = std::move(summary);
    out.best.engine = "prep";
    out.best.verdict = *prepared.decided;
    out.best.cex = std::move(prepared.decidedCex);
    out.best.stats = std::move(prepared.stats);
    // A decided Unsafe must come with a replayable trace.
    if (opts_.verifyCex)
      prep::demoteUnreplayableCex(net, out.best, /*requireTrace=*/true);
    out.wallSeconds = wall.seconds();
    out.best.seconds = out.wallSeconds;
    emitResult(net.name, out);
    return out;
  }

  // The schedulers get the time that preprocessing left over, so the
  // whole-problem budget covers prep + engines, not each separately.
  PortfolioOptions inner = opts_;
  if (inner.timeLimitSeconds > 0.0)
    inner.timeLimitSeconds =
        std::max(1e-3, inner.timeLimitSeconds - wall.seconds());
  PortfolioResult out = inner.schedule == ScheduleMode::Slice
                            ? TimeSliceScheduler(inner).run(problem)
                            : runRace(problem, inner);
  out.prep = std::move(summary);
  out.best.stats.merge(prepared.stats);

  // Lift an Unsafe winner's trace back to the original network and run
  // the independent referee THERE (the schedulers already refereed it on
  // the reduced model). This happens single-threaded, after every worker
  // joined — concurrent replays on the shared original would race on the
  // manager's scratch arenas.
  if (out.best.verdict == mc::Verdict::Unsafe && out.best.cex.has_value()) {
    out.best.cex = prepared.lifter().lift(std::move(*out.best.cex));
    if (opts_.verifyCex) prep::demoteUnreplayableCex(net, out.best);
  }

  out.wallSeconds = wall.seconds();
  out.best.seconds = out.wallSeconds;
  emitResult(net.name, out);
  return out;
}

void PortfolioRunner::emitResult(const std::string& problemName,
                                 const PortfolioResult& res) const {
  if (!opts_.onProgress) return;
  obs::ProgressEvent ev;
  ev.kind = "result";
  ev.problem = problemName;
  ev.engine = res.best.engine;
  ev.verdict = mc::toString(res.best.verdict);
  ev.seconds = res.wallSeconds;
  ev.bound = res.best.steps;
  if (res.allEnginesFailed) {
    ev.detail = "all engines failed";
  } else if (res.memLimitHit) {
    ev.detail = "rss ceiling hit";
  }
  opts_.onProgress(ev);
}

PortfolioResult PortfolioRunner::runRace(const mc::Network& net,
                                         const PortfolioOptions& opts) const {
  util::Timer wall;
  const std::size_t n = opts.engines.size();

  PortfolioResult out;
  out.runs.resize(n);

  // Engine-manager const reads stamp mutable scratch arenas, so every
  // racing thread owns a private clone, built sequentially up front.
  // Cloning is pre-engine but still engine-layer work (AIG growth): a
  // blow-up here degrades the whole problem to Unknown, never aborts.
  std::vector<mc::Network> clones;
  clones.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i)
      clones.push_back(mc::cloneNetwork(net));
  } catch (...) {
    for (std::size_t i = 0; i < n; ++i) {
      out.runs[i].engine = opts.engines[i];
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
  Budget budget(opts.timeLimitSeconds, opts.nodeLimit, &token);
  budget.withRssLimit(opts.rssLimitBytes);

  // Shared race state lives in one annotated struct: thread-safety
  // attributes cannot guard loose function locals.
  struct RaceState {
    util::Mutex mu;
    int winnerIdx CBQ_GUARDED_BY(mu) = -1;
    std::vector<mc::CheckResult> results CBQ_GUARDED_BY(mu);
    std::vector<char> wasCancelled CBQ_GUARDED_BY(mu);
    std::vector<std::string> failures CBQ_GUARDED_BY(mu);  ///< engine threw
  } st;
  {
    const util::MutexLock lock(st.mu);
    st.results.resize(n);
    st.wasCancelled.assign(n, 0);
    st.failures.resize(n);
  }

  auto worker = [&](std::size_t i) {
    obs::setThreadLabel("race " + opts.engines[i]);
    auto engine = mc::makeEngine(opts.engines[i]);
    mc::CheckResult res;
    // The exception barrier: an engine blowing up (BDD allocation, an
    // injected fault, even a non-std::exception throw) is quarantined
    // here — the thread reports Unknown and the rivals race on.
    std::string failure;
    try {
      CBQ_OBS_SPAN("sched", opts.engines[i]);
      res = engine->check(clones[i], budget);
    } catch (const std::exception& e) {
      failure = e.what();
      if (failure.empty()) failure = "unknown std::exception";
    } catch (...) {
      failure = "non-standard exception";
    }
    if (!failure.empty()) {
      res = mc::CheckResult{};
      res.engine = opts.engines[i];
      res.verdict = mc::Verdict::Unknown;
      res.stats.add("portfolio.engine_failures");
      if (opts.onProgress) {
        obs::ProgressEvent ev;
        ev.kind = "engine-failure";
        ev.problem = net.name;
        ev.engine = opts.engines[i];
        ev.detail = failure;
        opts.onProgress(ev);
      }
    }

    bool definitive = res.verdict != mc::Verdict::Unknown;
    if (definitive && opts.verifyCex &&
        res.verdict == mc::Verdict::Unsafe && res.cex.has_value() &&
        !mc::replayHitsBad(clones[i], *res.cex)) {
      // The independent referee rejected the trace: never report it.
      res.verdict = mc::Verdict::Unknown;
      res.stats.add("portfolio.cex_replay_failures");
      definitive = false;
    }

    if (opts.onProgress) {
      obs::ProgressEvent ev;
      ev.kind = "engine";
      ev.problem = net.name;
      ev.engine = opts.engines[i];
      ev.verdict = mc::toString(res.verdict);
      ev.seconds = res.seconds;
      ev.bound = res.steps;
      opts.onProgress(ev);
    }

    // Sampled before claiming the win: distinguishes "stopped because a
    // rival won" from "ran to its own Unknown before anyone won".
    const bool tokenFiredBeforeReturn = token.cancelled();
    {
      const util::MutexLock lock(st.mu);
      if (definitive && st.winnerIdx < 0) {
        st.winnerIdx = static_cast<int>(i);
        token.cancel();  // tell every rival to stop
      }
      st.results[i] = std::move(res);
      st.wasCancelled[i] = !definitive && tokenFiredBeforeReturn;
      st.failures[i] = std::move(failure);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i) threads.emplace_back(worker, i);
  } catch (const std::system_error&) {
    // Thread exhaustion mid-fan-out: stop the engines already racing and
    // settle for their results; never-started engines stay Unknown. The
    // alternative is a joinable-thread destructor calling std::terminate.
    token.cancel();
  }
  for (std::thread& t : threads) t.join();

  // Post-join the race is single-threaded again, but the aggregation
  // still takes the (uncontended) lock so every access stays checked.
  const util::MutexLock lock(st.mu);
  for (std::size_t i = 0; i < n; ++i) {
    EngineRun& run = out.runs[i];
    run.engine = opts.engines[i];
    run.verdict = st.results[i].verdict;
    run.steps = st.results[i].steps;
    run.seconds = st.results[i].seconds;
    run.winner = static_cast<int>(i) == st.winnerIdx;
    run.cancelled = st.wasCancelled[i] != 0;
    run.slices = 1;  // race mode: one uninterrupted run per engine
    run.failed = !st.failures[i].empty();
    run.error = st.failures[i];
    run.stats = st.results[i].stats;
    if (run.failed) ++out.engineFailures;
  }
  out.allEnginesFailed = out.engineFailures == static_cast<int>(n) && n > 0;
  out.memLimitHit = budget.memLimitHit();

  if (st.winnerIdx >= 0) {
    out.best = std::move(st.results[static_cast<std::size_t>(st.winnerIdx)]);
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
  out.wallSeconds = wall.seconds();
  out.best.seconds = out.wallSeconds;
  return out;
}

}  // namespace cbq::portfolio
