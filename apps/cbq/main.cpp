// cbq — the portfolio model checker's command-line front end.
//
//   cbq check file.aag [--engine bmc | --engines cbq-reach,bmc] [--timeout 30]
//   cbq batch dir/ --jobs 8 --engines cbq-reach,bmc,k-induction --timeout 30
//   cbq gen counter --width 4 [--unsafe] [-o counter.aag]
//   cbq gen-suite dir/
//   cbq engines
//
// `check` races the engine portfolio on one circuit (a single --engine runs
// sequentially); `batch` fans a directory of circuits across worker
// threads, each problem checked by the portfolio, and writes JSON/CSV
// summaries. `gen` / `gen-suite` emit the built-in benchmark families as
// AIGER files so the tool is exercisable without external benchmark sets.
// Every verification path runs behind the preprocessing pipeline
// (src/prep) unless --prep=off; counterexamples are always lifted back to
// and replay-checked on the original circuit.
//
// `cbq check` exit-code contract (stable, scripting-safe):
//   0  = property proven (SAFE)
//   10 = counterexample found and replay-confirmed (UNSAFE)
//   20 = no definitive verdict (UNKNOWN — budget/limits hit, or a
//        counterexample failed the replay referee and was demoted)
//   1  = usage or input error (bad flags, unreadable/unparsable circuit)
// `batch` keeps 0 = error-free run, 1 = usage error or any problem file
// failed to load; `bench` returns 0 on verdict agreement, 2 on mismatch.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "audit/audit.hpp"
#include "circuits/io.hpp"
#include "circuits/suite.hpp"
#include "mc/engines.hpp"
#include "obs/memory.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "portfolio/report.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/scheduler.hpp"
#include "sweep/signatures.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace {

namespace fs = std::filesystem;
using cbq::mc::Verdict;

struct Args {
  std::vector<std::string> positional;
  double timeout = 0.0;
  std::size_t nodeLimit = 0;
  int jobs = 0;
  int width = 4;
  int workers = 1;  // slice-mode worker threads
  bool unsafe = false;
  bool quiet = false;
  bool audit = false;          // --audit: arm invariant audits (exit 30)
  std::string auditSelftest;   // --audit-selftest: seed a known corruption
  bool smoke = false;
  bool progress = false;  // NDJSON progress events on stderr
  std::string engine;
  std::vector<std::string> engines;
  std::vector<std::string> inject;  // --inject fault specs (repeatable)
  std::uint64_t injectSeed = 0;
  double memLimitMb = 0.0;  // --mem-limit: soft RSS ceiling (MB)
  int retries = 0;          // --retries: batch retry budget
  std::vector<std::string> fallbackEngines;  // --fallback-engines
  int seeds = 50;           // --seeds: soak fault schedules
  std::string schedule;  // race | slice (bench also: seq)
  std::string prepSpec;  // on | off | comma list of passes
  std::string output;  // -o
  std::string jsonPath;
  std::string csvPath;
  std::string tracePath;  // --trace: Chrome trace-event JSON
  std::string command;    // the full invocation, for report run headers
};

/// RunInfo for report provenance headers, from the parsed invocation.
cbq::portfolio::RunInfo makeRunInfo(const Args& args,
                                    const std::string& schedule) {
  auto info = cbq::portfolio::RunInfo::capture();
  info.command = args.command;
  info.jobs = args.jobs;
  info.schedule = schedule.empty() ? "race" : schedule;
  return info;
}

/// Flushes the span buffers to `path` as Chrome trace-event JSON.
bool writeTraceFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cbq: cannot write %s\n", path.c_str());
    return false;
  }
  cbq::obs::writeChromeTrace(out);
  const auto ts = cbq::obs::traceStats();
  std::fprintf(stderr,
               "trace: %zu spans from %zu threads -> %s (open in "
               "chrome://tracing or ui.perfetto.dev)%s\n",
               ts.events, ts.threads, path.c_str(),
               ts.dropped > 0 ? " [ring buffer dropped events]" : "");
  return true;
}

/// Parses --prep: "on"/"" (all passes, default), "off", or a comma list
/// of pass names (coi,const,sweep,latchcorr) enabling only those.
bool parsePrep(const std::string& spec, cbq::prep::PrepOptions& prep) {
  if (spec.empty() || spec == "on") return true;
  if (spec == "off") {
    prep.enabled = false;
    return true;
  }
  prep.coi = prep.constLatch = prep.structural = prep.latchCorr = false;
  std::stringstream ss(spec);
  std::string pass;
  while (std::getline(ss, pass, ',')) {
    if (pass == "coi") {
      prep.coi = true;
    } else if (pass == "const") {
      prep.constLatch = true;
    } else if (pass == "sweep") {
      prep.structural = true;
    } else if (pass == "latchcorr") {
      prep.latchCorr = true;
    } else if (!pass.empty()) {
      std::fprintf(stderr,
                   "cbq: unknown prep pass '%s' "
                   "(on|off|coi,const,sweep,latchcorr)\n",
                   pass.c_str());
      return false;
    }
  }
  return true;
}

void printPrepSummary(const cbq::portfolio::PrepSummary& p) {
  if (!p.enabled) return;
  std::printf("prep: latches %zu -> %zu, inputs %zu -> %zu, ands %zu -> %zu "
              "(%.1fms%s)\n",
              p.latchesBefore, p.latchesAfter, p.inputsBefore, p.inputsAfter,
              p.andsBefore, p.andsAfter, p.seconds * 1e3,
              p.decided ? ", verdict decided by preprocessing" : "");
  for (const auto& ps : p.passes)
    std::printf("  %-9s latches %zu -> %zu, inputs %zu -> %zu, "
                "ands %zu -> %zu (%.1fms)\n",
                ps.pass.c_str(), ps.latchesBefore, ps.latchesAfter,
                ps.inputsBefore, ps.inputsAfter, ps.andsBefore, ps.andsAfter,
                ps.seconds * 1e3);
}

/// Parses --schedule for check/batch; empty defaults to race.
bool parseSchedule(const std::string& s,
                   cbq::portfolio::ScheduleMode& mode) {
  if (s.empty() || s == "race") {
    mode = cbq::portfolio::ScheduleMode::Race;
    return true;
  }
  if (s == "slice") {
    mode = cbq::portfolio::ScheduleMode::Slice;
    return true;
  }
  std::fprintf(stderr, "cbq: unknown schedule '%s' (race|slice)\n",
               s.c_str());
  return false;
}

std::vector<std::string> splitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// Arms --inject fault specs (after seeding with --inject-seed). Returns
/// false on a malformed spec. No-op in -DCBQ_FAULTS=OFF builds, where the
/// flags are accepted but warn that injection is compiled out.
bool armInjections(const Args& args) {
  if (args.inject.empty()) return true;
#if defined(CBQ_NO_FAULTS)
  std::fprintf(stderr,
               "cbq: warning: built with CBQ_FAULTS=OFF, --inject ignored\n");
  return true;
#else
  auto& injector = cbq::util::FaultInjector::instance();
  injector.seed(args.injectSeed);
  for (const std::string& spec : args.inject) {
    std::string error;
    if (!injector.arm(spec, &error)) {
      std::fprintf(stderr, "cbq: bad --inject spec: %s\n", error.c_str());
      return false;
    }
  }
  return true;
#endif
}

/// Prints armed-site hit/fire counters (after a faulted run).
void printFaultStats() {
#if !defined(CBQ_NO_FAULTS)
  for (const auto& s : cbq::util::FaultInjector::instance().stats())
    std::fprintf(stderr, "fault: %s hits=%llu fires=%llu\n", s.site.c_str(),
                 static_cast<unsigned long long>(s.hits),
                 static_cast<unsigned long long>(s.fires));
#endif
}

/// Parses all of `v` as a non-negative number. Trailing garbage, a sign,
/// overflow, NaN, or a real above 1e9 print "cbq: bad value for FLAG" and
/// return false. The cap keeps --timeout (31 years) and --mem-limit (a
/// petabyte) inside the clock-tick and byte conversions downstream.
template <typename T>
bool parseNumber(const char* flag, const char* v, T& out) {
  const char* end = v + std::strlen(v);
  T parsed{};
  const auto [ptr, ec] = std::from_chars(v, end, parsed);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && parsed <= 1e9;
  if constexpr (std::is_signed_v<T>) ok = ok && parsed >= 0;
  if (!ok) {
    std::fprintf(stderr, "cbq: bad value for %s\n", flag);
    return false;
  }
  out = parsed;
  return true;
}

bool parseArgs(int argc, char** argv, int first, Args& args) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "cbq: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    auto number = [&](const char* flag, auto& out) {
      const char* v = value(flag);
      return v != nullptr && parseNumber(flag, v, out);
    };
    if (a == "--timeout" || a == "-t") {
      if (!number("--timeout", args.timeout)) return false;
    } else if (a == "--node-limit") {
      if (!number("--node-limit", args.nodeLimit)) return false;
    } else if (a == "--jobs" || a == "-j") {
      if (!number("--jobs", args.jobs)) return false;
    } else if (a == "--width" || a == "-w") {
      if (!number("--width", args.width)) return false;
    } else if (a == "--engine") {
      const char* v = value("--engine");
      if (!v) return false;
      args.engine = v;
    } else if (a == "--engines") {
      const char* v = value("--engines");
      if (!v) return false;
      args.engines = splitCsv(v);
    } else if (a == "--inject") {
      const char* v = value("--inject");
      if (!v) return false;
      args.inject.emplace_back(v);
    } else if (a == "--inject-seed") {
      if (!number("--inject-seed", args.injectSeed)) return false;
    } else if (a == "--mem-limit") {
      if (!number("--mem-limit", args.memLimitMb)) return false;
    } else if (a == "--retries") {
      if (!number("--retries", args.retries)) return false;
    } else if (a == "--fallback-engines") {
      const char* v = value("--fallback-engines");
      if (!v) return false;
      args.fallbackEngines = splitCsv(v);
    } else if (a == "--seeds") {
      if (!number("--seeds", args.seeds)) return false;
    } else if (a == "--schedule") {
      const char* v = value("--schedule");
      if (!v) return false;
      args.schedule = v;
    } else if (a == "--prep") {
      const char* v = value("--prep");
      if (!v) return false;
      args.prepSpec = v;
    } else if (a.rfind("--prep=", 0) == 0) {
      args.prepSpec = a.substr(7);
    } else if (a == "--workers") {
      if (!number("--workers", args.workers)) return false;
    } else if (a == "--output" || a == "-o") {
      const char* v = value("-o");
      if (!v) return false;
      args.output = v;
    } else if (a == "--json") {
      const char* v = value("--json");
      if (!v) return false;
      args.jsonPath = v;
    } else if (a == "--csv") {
      const char* v = value("--csv");
      if (!v) return false;
      args.csvPath = v;
    } else if (a == "--trace") {
      const char* v = value("--trace");
      if (!v) return false;
      args.tracePath = v;
    } else if (a == "--audit") {
      args.audit = true;
    } else if (a == "--audit-selftest") {
      const char* v = value("--audit-selftest");
      if (!v) return false;
      args.auditSelftest = v;
    } else if (a == "--progress") {
      args.progress = true;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--unsafe") {
      args.unsafe = true;
    } else if (a == "--safe") {
      args.unsafe = false;
    } else if (a == "--quiet" || a == "-q") {
      args.quiet = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "cbq: unknown option %s\n", a.c_str());
      return false;
    } else {
      args.positional.push_back(a);
    }
  }
  return true;
}

int usage() {
  std::fputs(
      "usage:\n"
      "  cbq check <file> [--engine NAME | --engines A,B,C] [--timeout S]\n"
      "            [--node-limit N] [--schedule race|slice] [--workers N]\n"
      "            [--prep on|off|coi,const,sweep,latchcorr]\n"
      "            [--trace FILE] [--progress]\n"
      "      run the portfolio on one circuit (.aag/.aig/.bench);\n"
      "      --timeout S is the run's only wall clock (default 0: none);\n"
      "      --schedule race (default) gives every engine a worker thread,\n"
      "      --schedule slice shares --workers threads (default 1:\n"
      "      single-core portfolio) and pauses a session only while\n"
      "      another waits for its worker;\n"
      "      a single --engine runs that engine alone. The preprocessing\n"
      "      pipeline (--prep, default on) shrinks the problem before any\n"
      "      engine starts; counterexamples are lifted back and replayed\n"
      "      on the original circuit. --trace FILE records a Chrome\n"
      "      trace-event profile (chrome://tracing / Perfetto); --progress\n"
      "      streams NDJSON progress events on stderr.\n"
      "      --audit runs the deep-invariant auditor on the loaded circuit\n"
      "      and arms the phase-boundary audit hooks (active in\n"
      "      -DCBQ_AUDIT=ON builds; the explicit pre-run audit works in\n"
      "      every build). --audit-selftest CLASS (strash|epoch|latch)\n"
      "      seeds a known corruption first, to exercise the exit path.\n"
      "      exit codes: 0 SAFE, 10 UNSAFE, 20 UNKNOWN, 1 usage/IO error,\n"
      "      30 audit violation (only with --audit)\n"
      "  cbq batch <dir-or-files...> [--jobs N] [--engines A,B,C]\n"
      "            [--timeout S] [--node-limit N] [--schedule race|slice]\n"
      "            [--prep ...] [--json F] [--csv F]\n"
      "            [--quiet] [--trace FILE] [--progress]\n"
      "      verify every circuit file with a worker pool; --timeout is\n"
      "      the per-problem budget\n"
      "  cbq gen <family> [--width N] [--unsafe] [-o file.aag]\n"
      "      emit a built-in benchmark family instance as AIGER ascii\n"
      "      (or binary with -o file.aig); family `giant` scales to\n"
      "      millions of AND nodes (~16 ANDs per --width unit)\n"
      "  cbq gen-suite <dir>\n"
      "      emit the standard suite (all families, safe+unsafe) into dir\n"
      "  cbq engines\n"
      "      list engine names (* = default portfolio)\n"
      "  cbq soak [--seeds N] [--smoke] [--timeout S] [--schedule race|slice]\n"
      "           [--engines A,B,C] [-o FILE] [--quiet]\n"
      "      soundness-under-faults soak: N randomized fault schedules per\n"
      "      suite circuit (deterministic per seed). Faults may only\n"
      "      DEGRADE verdicts: a faulted run may answer UNKNOWN but never\n"
      "      flip a definitive answer against the ground truth, and the\n"
      "      process must never abort. --smoke shrinks the suite for CI.\n"
      "      exit codes: 0 sound, 3 verdict flip detected, 1 usage error\n"
      "  robustness flags (check/batch/soak):\n"
      "      --inject 'site[:K|:prob=P][:throw|fail|stall|oom|nonstd]"
      "[:stall=MS]'\n"
      "          arm a deterministic fault (repeatable); sites: bdd.alloc,\n"
      "          sat.solve, aig.grow, io.read_chunk, engine.resume,\n"
      "          prep.pass\n"
      "      --inject-seed S   seed for prob-mode faults (reproducible)\n"
      "      --mem-limit MB    soft per-problem RSS ceiling: engines bail\n"
      "                        to UNKNOWN instead of riding into the OOM\n"
      "                        killer\n"
      "      --retries N       batch: retry failure-driven UNKNOWNs with\n"
      "                        fresh sessions (default 0)\n"
      "      --fallback-engines A,B   batch: engine set for retry attempts\n"
      "  cbq bench [--engine NAME] [--timeout S] [--smoke] [-o FILE]\n"
      "            [--schedule seq|slice|race] [--prep ...]\n"
      "      run the generated family suite and write BENCH_reach.json:\n"
      "      per-circuit wall time, sweeper SAT calls, pair-cache hit\n"
      "      rate, solver effort. --schedule seq (default) runs one\n"
      "      engine sequentially (default cbq-reach); slice/race run the\n"
      "      engine portfolio time-sliced on one core / racing on\n"
      "      threads; --smoke restricts to a few tiny circuits for CI\n"
      "  cbq bench-par [--timeout S] [--smoke] [-o FILE]\n"
      "      giant-circuit harness: times the signature resimulation\n"
      "      kernel (column-major reference vs node-major SIMD) and one\n"
      "      end-to-end cbq-reach check on giant-family instances\n"
      "      (million-AND scale; --smoke shrinks them for CI) and writes\n"
      "      BENCH_par.json; exits 2 if a verdict contradicts the\n"
      "      expected one\n",
      stderr);
  return 1;
}

void printEngineTable(const std::vector<cbq::portfolio::EngineRun>& runs) {
  std::printf("  %-14s %-8s %6s %9s %7s  %s\n", "engine", "verdict", "steps",
              "seconds", "slices", "");
  for (const auto& r : runs) {
    std::printf("  %-14s %-8s %6d %9.3f %7d  %s\n", r.engine.c_str(),
                cbq::mc::toString(r.verdict), r.steps, r.seconds, r.slices,
                r.winner      ? "<- winner"
                : r.cancelled ? "(cancelled)"
                              : "");
  }
}

/// A suite instance's name in file names and reports: family, width
/// (when the family has one), then _safe or _unsafe.
std::string instanceName(const cbq::circuits::Instance& inst) {
  std::ostringstream name;
  name << inst.family;
  if (inst.width > 0) name << inst.width;
  name << (inst.expected == Verdict::Safe ? "_safe" : "_unsafe");
  return name.str();
}

/// The portfolio settings `check` and `batch` take from the command
/// line. Returns false after a usage message on a bad --schedule or
/// --prep value.
bool portfolioOptionsFrom(const Args& args,
                          cbq::portfolio::PortfolioOptions& opts) {
  if (!args.engine.empty()) {
    opts.engines = {args.engine};
  } else if (!args.engines.empty()) {
    opts.engines = args.engines;
  }
  opts.timeLimitSeconds = args.timeout;
  opts.nodeLimit = args.nodeLimit;
  opts.rssLimitBytes =
      static_cast<std::size_t>(args.memLimitMb * 1024.0 * 1024.0);
  opts.sliceWorkers = args.workers;
  return parseSchedule(args.schedule, opts.schedule) &&
         parsePrep(args.prepSpec, opts.prep);
}

int cmdEngines() {
  const auto defaults = cbq::portfolio::defaultPortfolio();
  for (const std::string& name : cbq::mc::engineNames()) {
    const bool inDefault =
        std::find(defaults.begin(), defaults.end(), name) != defaults.end();
    std::printf("%s%s\n", name.c_str(), inDefault ? " *" : "");
  }
  return 0;
}

int cmdCheck(const Args& args) {
  if (args.positional.size() != 1) return usage();
  cbq::mc::Network net;
  try {
    net = cbq::circuits::readCircuitFile(args.positional[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cbq: %s\n", e.what());
    return 1;
  }
  std::printf("%s: %zu latches, %zu inputs, %zu AND nodes\n",
              net.name.c_str(), net.numLatches(), net.numInputs(),
              net.aig.numAnds());

  // --audit: arm the phase-boundary hooks and audit the loaded circuit up
  // front; --audit-selftest seeds a known corruption first so scripts can
  // verify the dedicated exit code end to end.
  const bool auditing = args.audit || !args.auditSelftest.empty();
  if (!args.auditSelftest.empty()) {
    if (!cbq::audit::selftestCorrupt(net, args.auditSelftest)) {
      std::string known;
      for (const auto& c : cbq::audit::selftestClasses())
        known += (known.empty() ? "" : "|") + c;
      std::fprintf(stderr, "cbq: --audit-selftest %s failed (classes: %s)\n",
                   args.auditSelftest.c_str(), known.c_str());
      return 1;
    }
  }
  if (auditing) {
    cbq::audit::setArmed(true);
    if (const auto rep = cbq::audit::auditNetwork(net); !rep.ok()) {
      std::fprintf(stderr, "cbq: audit violation at load: %s\n",
                   rep.summary().c_str());
      return 30;
    }
  }

  cbq::portfolio::PortfolioOptions opts;
  if (!portfolioOptionsFrom(args, opts)) return 1;

  // --progress streams NDJSON events on stderr; the streamer must outlive
  // the run because engine threads call into it at slice boundaries.
  std::unique_ptr<cbq::obs::ProgressStreamer> streamer;
  if (args.progress) {
    streamer = std::make_unique<cbq::obs::ProgressStreamer>(std::cerr);
    opts.onProgress = streamer->fn();
  }
  if (!args.tracePath.empty()) cbq::obs::enableTracing();

  cbq::portfolio::PortfolioResult res;
  try {
    const cbq::portfolio::PortfolioRunner runner(opts);
    res = runner.run(net);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cbq: %s\n", e.what());
    return 1;
  } catch (const cbq::audit::AuditError& e) {
    // A hook fired on the caller thread (prep containment re-raises it
    // deliberately): the dedicated audit exit code, not a degradation.
    std::fprintf(stderr, "cbq: %s\n", e.what());
    return 30;
  } catch (const std::exception& e) {
    // Engine-layer failure that escaped every barrier: graceful
    // degradation means UNKNOWN (20), never a crash or a usage error.
    std::fprintf(stderr, "cbq: engine failure: %s\n", e.what());
    return 20;
  } catch (...) {
    std::fprintf(stderr, "cbq: engine failure: non-standard exception\n");
    return 20;
  }
  if (!args.tracePath.empty()) {
    cbq::obs::disableTracing();
    if (!writeTraceFile(args.tracePath)) return 1;
  }

  printPrepSummary(res.prep);
  printEngineTable(res.runs);
  {
    auto peakOf = [&](const char* gauge) {
      double peak = res.best.stats.gauge(gauge);
      for (const auto& r : res.runs)
        peak = std::max(peak, r.stats.gauge(gauge));
      return static_cast<std::uint64_t>(std::max(0.0, peak));
    };
    std::printf("mem: peak RSS %.1f MB, aig peak %llu nodes, "
                "bdd peak %llu nodes\n",
                static_cast<double>(cbq::obs::peakRssBytes()) /
                    (1024.0 * 1024.0),
                static_cast<unsigned long long>(
                    peakOf("mem.aig_peak_nodes")),
                static_cast<unsigned long long>(peakOf("bdd.peak_nodes")));
  }
  if (res.engineFailures > 0) {
    std::printf("containment: %d engine%s failed and %s quarantined%s\n",
                res.engineFailures, res.engineFailures == 1 ? "" : "s",
                res.engineFailures == 1 ? "was" : "were",
                res.allEnginesFailed ? " (ALL engines failed)" : "");
    for (const auto& r : res.runs)
      if (r.failed)
        std::printf("  %-14s %s\n", r.engine.c_str(), r.error.c_str());
  }
  if (res.memLimitHit)
    std::printf("containment: soft RSS ceiling hit; engines bailed out\n");
  if (auditing) {
    // Audit hooks firing inside engine threads are quarantined by the
    // containment barriers; surface them as the audit exit code instead
    // of letting the run pass for a mere engine failure.
    for (const auto& r : res.runs) {
      if (r.failed && r.error.rfind("audit violation", 0) == 0) {
        std::fprintf(stderr, "cbq: %s (engine %s)\n", r.error.c_str(),
                     r.engine.c_str());
        return 30;
      }
    }
  }
  if (!args.inject.empty()) printFaultStats();
  const auto* winner = res.winner();
  std::printf("verdict: %s (%s, %.3fs wall)\n",
              cbq::mc::toString(res.best.verdict),
              winner            ? winner->engine.c_str()
              : res.prep.decided ? "prep"
                                 : "no definitive engine",
              res.wallSeconds);

  if (res.best.verdict == Verdict::Unsafe && res.best.cex.has_value()) {
    // The runner already lifted the trace and refereed it on the
    // original network; this replay is the user-visible confirmation.
    const bool ok = cbq::mc::replayHitsBad(net, *res.best.cex);
    std::printf("counterexample: %zu steps, replay %s\n",
                res.best.cex->length(),
                ok ? "confirms the bug" : "FAILED");
    if (!ok) return 20;  // never report an unconfirmed bug as UNSAFE
  }
  // The documented contract: 0 SAFE, 10 UNSAFE, 20 UNKNOWN.
  switch (res.best.verdict) {
    case Verdict::Safe:
      return 0;
    case Verdict::Unsafe:
      return 10;
    case Verdict::Unknown:
      break;
  }
  return 20;
}

int cmdBatch(const Args& args) {
  if (args.positional.empty()) return usage();

  std::vector<std::string> files;
  try {
    files = cbq::portfolio::BatchScheduler::collectCircuitFiles(
        args.positional);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cbq: %s\n", e.what());
    return 1;
  }
  if (files.empty()) {
    std::fprintf(stderr, "cbq: no circuit files (.aag/.aig/.bench) found\n");
    return 1;
  }

  cbq::portfolio::BatchOptions opts;
  opts.jobs = args.jobs;
  opts.retries = args.retries;
  opts.fallbackEngines = args.fallbackEngines;
  if (!portfolioOptionsFrom(args, opts.portfolio)) return 1;

  std::unique_ptr<cbq::obs::ProgressStreamer> streamer;
  if (args.progress) {
    streamer = std::make_unique<cbq::obs::ProgressStreamer>(std::cerr);
    opts.portfolio.onProgress = streamer->fn();
  }
  if (!args.tracePath.empty()) cbq::obs::enableTracing();

  cbq::portfolio::BatchSummary summary;
  try {
    const cbq::portfolio::BatchScheduler scheduler(opts);
    const auto onResult =
        [&](const cbq::portfolio::BatchProblemResult& r) {
          if (args.quiet) return;
          if (!r.error.empty()) {
            std::printf("%-28s ERROR    %s\n", r.name.c_str(),
                        r.error.c_str());
          } else {
            std::string note;
            if (r.engineFailures > 0)
              note += " [" + std::to_string(r.engineFailures) +
                      " engine failure" +
                      (r.engineFailures == 1 ? "]" : "s]");
            if (r.retries > 0)
              note += " [retried x" + std::to_string(r.retries) + "]";
            if (r.memLimitHit) note += " [mem limit]";
            std::printf("%-28s %-8s %-14s %6d steps %9.3fs%s\n",
                        r.name.c_str(), cbq::mc::toString(r.verdict),
                        r.winnerEngine.empty() ? "-"
                                               : r.winnerEngine.c_str(),
                        r.steps, r.seconds, note.c_str());
          }
          std::fflush(stdout);
        };
    summary = scheduler.runFiles(files, onResult);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cbq: %s\n", e.what());
    return 1;
  }
  if (!args.tracePath.empty()) {
    cbq::obs::disableTracing();
    if (!writeTraceFile(args.tracePath)) return 1;
  }

  std::printf(
      "\n%zu problems: %d safe, %d unsafe, %d unknown, %d errors "
      "(%.3fs wall)\n",
      summary.problems.size(), summary.safe, summary.unsafe,
      summary.unknown, summary.errors, summary.wallSeconds);
  if (!args.inject.empty()) printFaultStats();

  const cbq::portfolio::RunInfo runInfo = makeRunInfo(args, args.schedule);
  auto writeReport = [](const std::string& path, const auto& writer,
                        const cbq::portfolio::BatchSummary& s) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cbq: cannot write %s\n", path.c_str());
      return false;
    }
    writer(s, out);
    return true;
  };
  const auto jsonWriter = [&](const cbq::portfolio::BatchSummary& s,
                              std::ostream& out) {
    cbq::portfolio::writeJson(s, out, &runInfo);
  };
  if (!args.jsonPath.empty() &&
      !writeReport(args.jsonPath, jsonWriter, summary))
    return 1;
  if (!args.csvPath.empty() &&
      !writeReport(args.csvPath, cbq::portfolio::writeCsv, summary))
    return 1;

  return summary.errors == 0 ? 0 : 1;
}

int cmdGen(const Args& args) {
  if (args.positional.size() != 1) return usage();
  cbq::circuits::Instance inst;
  try {
    inst = cbq::circuits::makeInstance(args.positional[0], args.width,
                                       !args.unsafe);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cbq: %s\n", e.what());
    return 1;
  }
  if (args.output.empty()) {
    cbq::circuits::writeAag(inst.net, std::cout);
  } else {
    // Match the reader's extension dispatch: .aig gets binary AIGER so
    // the generated file round-trips through `cbq check`/`cbq batch`.
    const bool binary = args.output.size() >= 4 &&
                        args.output.compare(args.output.size() - 4, 4,
                                            ".aig") == 0;
    std::ofstream out(args.output,
                      binary ? std::ios::out | std::ios::binary
                             : std::ios::out);
    if (!out) {
      std::fprintf(stderr, "cbq: cannot write %s\n", args.output.c_str());
      return 1;
    }
    if (binary) {
      cbq::circuits::writeAigBinary(inst.net, out);
    } else {
      cbq::circuits::writeAag(inst.net, out);
    }
    std::fprintf(stderr, "wrote %s (%s, expected %s)\n",
                 args.output.c_str(), inst.net.name.c_str(),
                 cbq::mc::toString(inst.expected));
  }
  return 0;
}

int cmdGenSuite(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const fs::path dir(args.positional[0]);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cbq: cannot create %s\n", dir.string().c_str());
    return 1;
  }
  int count = 0;
  for (const auto& inst : cbq::circuits::standardSuite()) {
    const std::string name = instanceName(inst) + ".aag";
    std::ofstream out(dir / name);
    if (!out) {
      std::fprintf(stderr, "cbq: cannot write %s\n", name.c_str());
      return 1;
    }
    cbq::circuits::writeAag(inst.net, out);
    ++count;
  }
  std::printf("wrote %d circuits to %s\n", count, dir.string().c_str());
  return 0;
}

/// `cbq bench`: one engine, sequential, over the generated family suite —
/// the perf-trajectory harness. Writes a JSON report with per-circuit wall
/// time, sweeper SAT-call counts, pair-cache hit rate and solver effort,
/// so successive runs of the binary are comparable ("did the hot loop get
/// faster, and why").
int cmdBench(const Args& args) {
  const std::string engineName =
      args.engine.empty() ? "cbq-reach" : args.engine;
  const std::string schedule =
      args.schedule.empty() ? "seq" : args.schedule;
  const double timeout = args.timeout > 0.0 ? args.timeout : 60.0;
  const std::string outPath =
      args.output.empty() ? "BENCH_reach.json" : args.output;
  if (schedule != "seq" && schedule != "slice" && schedule != "race") {
    std::fprintf(stderr, "cbq: unknown schedule '%s' (seq|slice|race)\n",
                 schedule.c_str());
    return 1;
  }
  if (schedule == "seq" && !cbq::mc::makeEngine(engineName)) {
    std::fprintf(stderr, "cbq: unknown engine %s\n", engineName.c_str());
    return 1;
  }
  cbq::prep::PrepOptions prepOpts;
  if (!parsePrep(args.prepSpec, prepOpts)) return 1;

  auto instances = cbq::circuits::standardSuite();
  if (args.smoke) {
    // CI mode: a few tiny circuits, just enough to exercise the pipeline.
    std::erase_if(instances, [](const cbq::circuits::Instance& inst) {
      return !(inst.width <= 3 &&
               (inst.family == "counter" || inst.family == "gray"));
    });
  } else {
    // Wider-width instances: the standard suite finishes in fractions of
    // a second, so the perf trajectory is carried by these.
    static constexpr struct {
      const char* family;
      int width;
    } kHard[] = {{"counter", 10}, {"counter", 12}, {"gray", 6},
                 {"gray", 7},     {"evencount", 6}, {"evencount", 7},
                 {"lfsr", 7},     {"lfsr", 8},      {"ring", 10},
                 {"arbiter", 6},  {"arbiter", 8},   {"queue", 4},
                 {"queue", 5},    {"mult", 6},      {"mult", 8},
                 {"haystack", 6}, {"haystack", 8}};
    for (const auto& spec : kHard) {
      for (const bool safe : {true, false}) {
        instances.push_back(
            cbq::circuits::makeInstance(spec.family, spec.width, safe));
      }
    }
  }

  struct Row {
    std::string name;
    std::string winner;  ///< solving engine (seq: the engine itself)
    const char* expected;
    const char* verdict;
    int steps = 0;
    double seconds = 0.0;
    std::int64_t sweepChecks = 0, dcChecks = 0, simProofs = 0;
    std::int64_t lookups = 0, hits = 0;
    std::int64_t conflicts = 0, propagations = 0;
    std::int64_t remaps = 0, compactions = 0;
    bool agree = true;
  };
  std::vector<Row> rows;
  double total = 0.0;
  int solved = 0;
  int mismatches = 0;

  for (const auto& inst : instances) {
    cbq::mc::CheckResult r;
    if (schedule == "seq") {
      // The sequential entry path: the portfolio sequence (prep, session,
      // lift, referee on the original) with one engine on one worker.
      auto engine = cbq::mc::makeEngine(engineName);
      const cbq::portfolio::Budget budget(timeout);
      r = cbq::prep::checkWithPrep(*engine, inst.net, prepOpts, budget);
    } else {
      // Portfolio variant: --schedule slice is the single-core
      // time-sliced portfolio, --schedule race one worker per engine.
      cbq::portfolio::PortfolioOptions popts;
      if (!args.engines.empty()) popts.engines = args.engines;
      popts.timeLimitSeconds = timeout;
      popts.schedule = schedule == "slice"
                           ? cbq::portfolio::ScheduleMode::Slice
                           : cbq::portfolio::ScheduleMode::Race;
      popts.sliceWorkers = args.workers;
      popts.prep = prepOpts;
      const cbq::portfolio::PortfolioRunner runner(popts);
      auto pr = runner.run(inst.net);
      r = std::move(pr.best);
    }

    Row row;
    row.name = instanceName(inst);
    row.winner = r.engine;
    row.expected = cbq::mc::toString(inst.expected);
    row.verdict = cbq::mc::toString(r.verdict);
    row.steps = r.steps;
    row.seconds = r.seconds;
    row.sweepChecks = r.stats.count("merge.sat_checks");
    row.dcChecks = r.stats.count("opt.sat_checks");
    row.simProofs = r.stats.count("merge.sim_proofs") +
                    r.stats.count("opt.sim_proofs");
    row.lookups = r.stats.count("sweep.cache_lookups");
    row.hits = r.stats.count("sweep.cache_hits_proven") +
               r.stats.count("sweep.cache_hits_refuted");
    row.conflicts = r.stats.count("sat.conflicts");
    row.propagations = r.stats.count("sat.propagations");
    row.remaps = r.stats.count("sweep.cache_remaps");
    row.compactions = r.stats.count("reach.compactions");
    row.agree = r.verdict == Verdict::Unknown || r.verdict == inst.expected;
    total += r.seconds;
    if (r.verdict != Verdict::Unknown) ++solved;
    if (!row.agree) ++mismatches;
    if (!args.quiet) {
      std::printf(
          "%-24s %-8s %8.3fs  sat=%lld dc=%lld sim=%lld cache=%lld/%lld\n",
          row.name.c_str(), row.verdict, row.seconds,
          static_cast<long long>(row.sweepChecks),
          static_cast<long long>(row.dcChecks),
          static_cast<long long>(row.simProofs),
          static_cast<long long>(row.hits),
          static_cast<long long>(row.lookups));
      std::fflush(stdout);
    }
    rows.push_back(std::move(row));
  }

  std::ofstream out(outPath);
  if (!out) {
    std::fprintf(stderr, "cbq: cannot write %s\n", outPath.c_str());
    return 1;
  }
  const std::int64_t allLookups = [&] {
    std::int64_t s = 0;
    for (const Row& r : rows) s += r.lookups;
    return s;
  }();
  const std::int64_t allHits = [&] {
    std::int64_t s = 0;
    for (const Row& r : rows) s += r.hits;
    return s;
  }();
  out << "{\n";
  out << "  \"run\": ";
  makeRunInfo(args, schedule).writeJson(out);
  out << ",\n";
  out << "  \"engine\": \""
      << (schedule == "seq" ? engineName : "portfolio-" + schedule)
      << "\",\n";
  out << "  \"schedule\": \"" << schedule << "\",\n";
  out << "  \"prep\": " << (prepOpts.enabled ? "true" : "false") << ",\n";
  out << "  \"timeout_seconds\": " << timeout << ",\n";
  out << "  \"circuits\": " << rows.size() << ",\n";
  out << "  \"solved\": " << solved << ",\n";
  out << "  \"verdict_mismatches\": " << mismatches << ",\n";
  out << "  \"total_seconds\": " << total << ",\n";
  out << "  \"cache_hit_rate\": "
      << (allLookups > 0
              ? static_cast<double>(allHits) / static_cast<double>(allLookups)
              : 0.0)
      << ",\n";
  out << "  \"results\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << r.name << "\", \"winner\": \""
        << r.winner << "\", \"expected\": \"" << r.expected
        << "\", \"verdict\": \"" << r.verdict
        << "\", \"steps\": " << r.steps << ", \"seconds\": " << r.seconds
        << ", \"sweeper_sat_checks\": " << r.sweepChecks
        << ", \"dc_sat_checks\": " << r.dcChecks
        << ", \"sim_proofs\": " << r.simProofs
        << ", \"cache_lookups\": " << r.lookups
        << ", \"cache_hits\": " << r.hits
        << ", \"conflicts\": " << r.conflicts
        << ", \"propagations\": " << r.propagations
        << ", \"cache_remaps\": " << r.remaps
        << ", \"compactions\": " << r.compactions << "}";
  }
  out << "\n  ]\n}\n";

  std::printf("%zu circuits, %d solved, %d mismatches, %.3fs total -> %s\n",
              rows.size(), solved, mismatches, total, outPath.c_str());
  return mismatches == 0 ? 0 : 2;
}

/// `cbq bench-par`: the giant-circuit harness. Generates giant-family
/// instances (million-AND scale unless --smoke), times the signature
/// resimulation kernel in its two shapes — column-major reference and
/// node-major SIMD-friendly — and one end-to-end cbq-reach check, then
/// writes BENCH_par.json. A definitive verdict that contradicts the
/// instance's expected one is a mismatch (exit 2).
int cmdBenchPar(const Args& args) {
  const double timeout = args.timeout > 0.0 ? args.timeout : 300.0;
  const std::string outPath =
      args.output.empty() ? "BENCH_par.json" : args.output;

  // The giant family costs ~16 ANDs per width unit (two mixing copies):
  // width 31250 ~ 0.5M ANDs, width 62500 ~ 1M ANDs.
  struct Spec {
    int width;
    bool safe;
  };
  std::vector<Spec> specs;
  if (args.smoke) {
    specs = {{200, true}, {200, false}};
  } else {
    specs = {{31250, true}, {31250, false}, {62500, true}};
  }

  auto bestOfMs = [](int reps, auto&& fn) {
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      cbq::util::Timer t;
      fn();
      best = std::min(best, t.seconds());
    }
    return best * 1e3;
  };

  struct Row {
    std::string name;
    std::size_t ands = 0, sigNodes = 0;
    double refMs = 0, simdMs = 0, checkSec = 0;
    const char* expected;
    const char* verdict;
    bool agree = true;
  };
  std::vector<Row> rows;
  int mismatches = 0;
  constexpr int kWords = 16;
  constexpr int kReps = 3;

  for (const Spec& spec : specs) {
    const auto inst =
        cbq::circuits::makeInstance("giant", spec.width, spec.safe);
    Row row;
    std::ostringstream name;
    name << "giant" << spec.width << (spec.safe ? "_safe" : "_unsafe");
    row.name = name.str();
    row.ands = inst.net.aig.numAnds();
    row.expected = cbq::mc::toString(inst.expected);

    // Signature kernel over the full root cone (next functions + bad) —
    // the same cone the sweeper refines.
    std::vector<cbq::aig::Lit> roots = inst.net.next;
    roots.push_back(inst.net.bad);
    const auto order = inst.net.aig.coneAnds(roots);
    const auto support = inst.net.aig.supportVars(roots);
    row.sigNodes = order.size();
    {
      cbq::util::Random rng(1);
      cbq::sweep::Signatures sigs(inst.net.aig, order, support, rng,
                                  kWords, kWords);
      row.refMs = bestOfMs(kReps, [&] { sigs.resimulateAllReference(); });
      row.simdMs = bestOfMs(kReps, [&] { sigs.resimulateAll(); });
    }

    cbq::portfolio::PortfolioOptions popts;
    popts.engines = {"cbq-reach"};
    popts.timeLimitSeconds = timeout;
    const cbq::portfolio::PortfolioRunner runner(popts);
    cbq::util::Timer t;
    const Verdict v = runner.run(inst.net).best.verdict;
    row.checkSec = t.seconds();
    row.verdict = cbq::mc::toString(v);
    row.agree = v == Verdict::Unknown || v == inst.expected;
    if (!row.agree) ++mismatches;
    if (!args.quiet) {
      std::printf("%-20s %8zu ands  resim ref %.1fms simd %.1fms  "
                  "check %.2fs  %s%s\n",
                  row.name.c_str(), row.ands, row.refMs, row.simdMs,
                  row.checkSec, row.verdict,
                  row.agree ? "" : "  MISMATCH");
      std::fflush(stdout);
    }
    rows.push_back(std::move(row));
  }

  std::ofstream out(outPath);
  if (!out) {
    std::fprintf(stderr, "cbq: cannot write %s\n", outPath.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"run\": ";
  makeRunInfo(args, "par").writeJson(out);
  out << ",\n";
  out << "  \"host_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"sig_words\": " << kWords << ",\n";
  out << "  \"smoke\": " << (args.smoke ? "true" : "false") << ",\n";
  out << "  \"verdict_mismatches\": " << mismatches << ",\n";
  out << "  \"results\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << r.name << "\", \"ands\": " << r.ands
        << ", \"sig_nodes\": " << r.sigNodes
        << ", \"resim_reference_ms\": " << r.refMs
        << ", \"resim_simd_ms\": " << r.simdMs
        << ", \"check_seconds\": " << r.checkSec
        << ", \"expected\": \"" << r.expected << "\", \"verdict\": \""
        << r.verdict << "\", \"agree\": " << (r.agree ? "true" : "false")
        << "}";
  }
  out << "\n  ]\n}\n";

  std::printf("%zu instances, %d mismatches -> %s\n", rows.size(),
              mismatches, outPath.c_str());
  return mismatches == 0 ? 0 : 2;
}

/// `cbq soak`: the soundness-under-faults harness. For each of --seeds
/// deterministic seeds, arms a randomized fault schedule (1-2 sites, a
/// random mode and trigger) and runs the portfolio over the suite. The
/// invariant under test: faults may only DEGRADE a verdict — a faulted
/// run may answer Unknown, but a definitive answer must match the
/// instance's ground truth (Unsafe additionally passed the replay referee
/// inside the runner), and the process must never abort. Exit 0 when
/// sound, 3 on any verdict flip.
int cmdSoak(const Args& args) {
#if defined(CBQ_NO_FAULTS)
  std::fprintf(stderr,
               "cbq: soak needs fault injection; rebuild with CBQ_FAULTS=ON\n");
  return 1;
#else
  const int seeds = args.seeds > 0 ? args.seeds : 50;
  const double timeout = args.timeout > 0.0 ? args.timeout : 10.0;
  cbq::portfolio::ScheduleMode mode;
  if (!parseSchedule(args.schedule, mode)) return 1;

  // The suite: built-in instances with known ground-truth verdicts. The
  // smoke subset keeps CI fast while still covering safe+unsafe and both
  // SAT- and BDD-leaning families.
  auto instances = cbq::circuits::standardSuite();
  if (args.smoke) {
    std::erase_if(instances, [](const cbq::circuits::Instance& inst) {
      return inst.width > 3 ||
             !(inst.family == "counter" || inst.family == "gray" ||
               inst.family == "ring" || inst.family == "arbiter");
    });
  }
  if (instances.empty()) {
    std::fprintf(stderr, "cbq: soak suite is empty\n");
    return 1;
  }

  const auto& sites = cbq::util::FaultInjector::knownSites();
  static constexpr const char* kModes[] = {"throw", "fail", "stall", "oom",
                                           "nonstd"};

  // splitmix64: the schedule for seed s is a pure function of s, so a
  // failing seed replays exactly with --seeds 1 after editing, or via the
  // printed --inject specs.
  auto split = [](std::uint64_t& st) {
    st += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = st;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };

  auto& injector = cbq::util::FaultInjector::instance();
  struct Flip {
    int seed;
    std::string name;
    std::string expected, got;
    std::string schedule;
  };
  std::vector<Flip> flips;
  long long runs = 0, degraded = 0, definitive = 0;
  unsigned long long firesTotal = 0;
  cbq::util::Timer wall;

  for (int seed = 0; seed < seeds; ++seed) {
    // Build this seed's schedule: 1-2 armed sites, random mode, random
    // trigger (fixed nth or per-hit probability), short stalls.
    std::uint64_t st = 0x5eedull + static_cast<std::uint64_t>(seed);
    const int nFaults = 1 + static_cast<int>(split(st) % 2);
    std::string scheduleDesc;
    injector.disarm();
    injector.seed(static_cast<std::uint64_t>(seed));
    for (int k = 0; k < nFaults; ++k) {
      std::string spec = sites[split(st) % sites.size()];
      spec += ":";
      spec += kModes[split(st) % (sizeof(kModes) / sizeof(kModes[0]))];
      if (split(st) % 2 == 0) {
        spec += ":" + std::to_string(1 + split(st) % 20);
      } else {
        spec += ":prob=0." + std::to_string(1 + split(st) % 4);  // .1-.4
      }
      spec += ":stall=25";
      std::string error;
      if (!injector.arm(spec, &error)) {
        std::fprintf(stderr, "cbq: internal soak spec error: %s\n",
                     error.c_str());
        return 1;
      }
      if (!scheduleDesc.empty()) scheduleDesc += " ";
      scheduleDesc += spec;
    }

    for (const auto& inst : instances) {
      cbq::portfolio::PortfolioOptions popts;
      if (!args.engines.empty()) popts.engines = args.engines;
      popts.timeLimitSeconds = timeout;
      popts.schedule = mode;
      popts.sliceWorkers = args.workers;
      Verdict got = Verdict::Unknown;
      try {
        const cbq::portfolio::PortfolioRunner runner(popts);
        got = runner.run(inst.net).best.verdict;
      } catch (...) {
        // Contained at the harness level: still only a degradation.
        got = Verdict::Unknown;
      }
      ++runs;
      if (got == Verdict::Unknown) {
        ++degraded;
      } else {
        ++definitive;
        if (got != inst.expected) {
          flips.push_back({seed, instanceName(inst),
                           cbq::mc::toString(inst.expected),
                           cbq::mc::toString(got), scheduleDesc});
        }
      }
    }
    firesTotal += injector.fireCount();
    if (!args.quiet && (seed + 1) % 10 == 0) {
      std::printf("soak: %d/%d seeds, %lld runs, %lld degraded, "
                  "%zu flips, %llu faults fired\n",
                  seed + 1, seeds, runs, degraded, flips.size(), firesTotal);
      std::fflush(stdout);
    }
  }
  injector.disarm();

  for (const Flip& f : flips)
    std::printf("FLIP: seed %d %s expected %s got %s under [%s]\n", f.seed,
                f.name.c_str(), f.expected.c_str(), f.got.c_str(),
                f.schedule.c_str());
  std::printf("soak: %d seeds x %zu circuits = %lld runs, "
              "%lld definitive, %lld degraded to UNKNOWN, %llu faults "
              "fired, %zu verdict flips (%.1fs)\n",
              seeds, instances.size(), runs, definitive, degraded,
              firesTotal, flips.size(), wall.seconds());

  if (!args.output.empty()) {
    std::ofstream out(args.output);
    if (!out) {
      std::fprintf(stderr, "cbq: cannot write %s\n", args.output.c_str());
      return 1;
    }
    out << "{\n  \"run\": ";
    makeRunInfo(args, args.schedule).writeJson(out);
    out << ",\n";
    out << "  \"seeds\": " << seeds << ",\n";
    out << "  \"circuits\": " << instances.size() << ",\n";
    out << "  \"runs\": " << runs << ",\n";
    out << "  \"definitive\": " << definitive << ",\n";
    out << "  \"degraded_to_unknown\": " << degraded << ",\n";
    out << "  \"faults_fired\": " << firesTotal << ",\n";
    out << "  \"verdict_flips\": " << flips.size() << ",\n";
    out << "  \"wall_seconds\": " << wall.seconds() << "\n}\n";
  }
  return flips.empty() ? 0 : 3;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) args.command += ' ';
    args.command += argv[i];
  }
  if (!parseArgs(argc, argv, 2, args)) return 1;
  if (!armInjections(args)) return 1;

  if (cmd == "engines") return cmdEngines();
  if (cmd == "soak") return cmdSoak(args);
  if (cmd == "bench") return cmdBench(args);
  if (cmd == "bench-par") return cmdBenchPar(args);
  if (cmd == "check") return cmdCheck(args);
  if (cmd == "batch") return cmdBatch(args);
  if (cmd == "gen") return cmdGen(args);
  if (cmd == "gen-suite") return cmdGenSuite(args);
  return usage();
}
