#include "portfolio/report.hpp"

#include <cmath>
#include <cstdio>
#include <ctime>
#include <ostream>
#include <sstream>
#include <thread>

#include "obs/version.hpp"

namespace cbq::portfolio {

namespace {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON has no NaN/Inf; clamp to null-free finite output.
std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << v;
  return os.str();
}

/// CSV fields are quoted only when they contain a comma, quote or newline.
std::string csvField(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Peak RSS in MB with enough precision for small processes.
std::string rssMb(std::uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

}  // namespace

RunInfo RunInfo::capture() {
  RunInfo info;
  info.gitDescribe = obs::gitDescribe();
  info.hostThreads = std::thread::hardware_concurrency();
  // Wall timestamp (ISO-8601 UTC): identifies the run in committed
  // reports. The only sanctioned system-clock read outside durations.
  // cbq-lint: allow(clock) run-header provenance timestamp, not a duration
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  info.timestamp = buf;
  return info;
}

void RunInfo::writeJson(std::ostream& out) const {
  out << "{\"command\": \"" << jsonEscape(command) << "\", "
      << "\"git\": \"" << jsonEscape(gitDescribe) << "\", "
      << "\"timestamp\": \"" << jsonEscape(timestamp) << "\", "
      << "\"jobs\": " << jobs << ", "
      << "\"host_threads\": " << hostThreads << ", "
      << "\"schedule\": \"" << jsonEscape(schedule) << "\"}";
}

void writeJson(const BatchSummary& summary, std::ostream& out,
               const RunInfo* run) {
  out << "{\n";
  if (run != nullptr) {
    out << "  \"run\": ";
    run->writeJson(out);
    out << ",\n";
  }
  out << "  \"total\": " << summary.problems.size() << ",\n";
  out << "  \"safe\": " << summary.safe << ",\n";
  out << "  \"unsafe\": " << summary.unsafe << ",\n";
  out << "  \"unknown\": " << summary.unknown << ",\n";
  out << "  \"errors\": " << summary.errors << ",\n";
  out << "  \"wall_seconds\": " << jsonNumber(summary.wallSeconds) << ",\n";
  out << "  \"problems\": [";
  for (std::size_t i = 0; i < summary.problems.size(); ++i) {
    const BatchProblemResult& p = summary.problems[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << jsonEscape(p.name) << "\", ";
    out << "\"path\": \"" << jsonEscape(p.path) << "\", ";
    out << "\"verdict\": \"" << mc::toString(p.verdict) << "\", ";
    out << "\"winner\": \"" << jsonEscape(p.winnerEngine) << "\", ";
    out << "\"steps\": " << p.steps << ", ";
    out << "\"seconds\": " << jsonNumber(p.seconds) << ", ";
    out << "\"latches\": " << p.latches << ", ";
    out << "\"inputs\": " << p.inputs << ", ";
    out << "\"ands\": " << p.ands << ", ";
    out << "\"error\": \"" << jsonEscape(p.error) << "\", ";
    out << "\"prep\": {\"enabled\": " << (p.prep.enabled ? "true" : "false")
        << ", \"decided\": " << (p.prep.decided ? "true" : "false")
        << ", \"seconds\": " << jsonNumber(p.prep.seconds)
        << ", \"latches_before\": " << p.prep.latchesBefore
        << ", \"latches_after\": " << p.prep.latchesAfter
        << ", \"inputs_before\": " << p.prep.inputsBefore
        << ", \"inputs_after\": " << p.prep.inputsAfter
        << ", \"ands_before\": " << p.prep.andsBefore
        << ", \"ands_after\": " << p.prep.andsAfter << ", \"passes\": [";
    for (std::size_t k = 0; k < p.prep.passes.size(); ++k) {
      const prep::PassStats& ps = p.prep.passes[k];
      out << (k == 0 ? "" : ", ");
      out << "{\"pass\": \"" << jsonEscape(ps.pass) << "\", "
          << "\"latches\": [" << ps.latchesBefore << ", " << ps.latchesAfter
          << "], \"inputs\": [" << ps.inputsBefore << ", " << ps.inputsAfter
          << "], \"ands\": [" << ps.andsBefore << ", " << ps.andsAfter
          << "], \"seconds\": " << jsonNumber(ps.seconds) << "}";
    }
    out << "]}, ";
    out << "\"mem\": {\"peak_rss_mb\": " << rssMb(p.peakRssBytes)
        << ", \"aig_peak_nodes\": " << p.aigPeakNodes
        << ", \"bdd_peak_nodes\": " << p.bddPeakNodes << "}, ";
    out << "\"robustness\": {\"engine_failures\": " << p.engineFailures
        << ", \"all_engines_failed\": "
        << (p.allEnginesFailed ? "true" : "false")
        << ", \"mem_limit_hit\": " << (p.memLimitHit ? "true" : "false")
        << ", \"retries\": " << p.retries << "}, ";
    out << "\"engines\": [";
    for (std::size_t j = 0; j < p.runs.size(); ++j) {
      const EngineRun& r = p.runs[j];
      out << (j == 0 ? "" : ", ");
      out << "{\"engine\": \"" << jsonEscape(r.engine) << "\", "
          << "\"verdict\": \"" << mc::toString(r.verdict) << "\", "
          << "\"steps\": " << r.steps << ", "
          << "\"seconds\": " << jsonNumber(r.seconds) << ", "
          << "\"winner\": " << (r.winner ? "true" : "false") << ", "
          << "\"cancelled\": " << (r.cancelled ? "true" : "false") << ", "
          << "\"failed\": " << (r.failed ? "true" : "false") << ", "
          << "\"failure\": \"" << jsonEscape(r.error) << "\", "
          << "\"slices\": " << r.slices << ", "
          << "\"propagations\": " << r.stats.count("sat.propagations")
          << ", "
          << "\"decisions\": " << r.stats.count("sat.decisions") << ", "
          << "\"conflicts\": " << r.stats.count("sat.conflicts") << ", "
          << "\"sweep_sat_checks\": "
          << (r.stats.count("merge.sat_checks") +
              r.stats.count("opt.sat_checks"))
          << ", "
          << "\"sim_proofs\": "
          << (r.stats.count("merge.sim_proofs") +
              r.stats.count("opt.sim_proofs"))
          << ", "
          << "\"cache_lookups\": " << r.stats.count("sweep.cache_lookups")
          << ", "
          << "\"cache_hits\": "
          << (r.stats.count("sweep.cache_hits_proven") +
              r.stats.count("sweep.cache_hits_refuted"))
          << "}";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
}

void writeCsv(const BatchSummary& summary, std::ostream& out) {
  out << "name,path,verdict,winner,steps,seconds,latches,inputs,ands,"
         "prep_seconds,prep_latches,prep_inputs,prep_ands,"
         "prep_coi_seconds,prep_const_seconds,prep_sweep_seconds,"
         "prep_latchcorr_seconds,"
         "propagations,decisions,conflicts,"
         "peak_rss_mb,aig_peak_nodes,bdd_peak_nodes,"
         "engine_failures,retries,mem_limit_hit,error\n";
  for (const BatchProblemResult& p : summary.problems) {
    // Effort columns aggregate over every engine that ran on the problem.
    std::int64_t props = 0, decs = 0, confs = 0;
    for (const EngineRun& r : p.runs) {
      props += r.stats.count("sat.propagations");
      decs += r.stats.count("sat.decisions");
      confs += r.stats.count("sat.conflicts");
    }
    // A pass may fire several times across pipeline rounds; its CSV
    // column is the total wall time it spent on this problem.
    double coiSec = 0, constSec = 0, sweepSec = 0, corrSec = 0;
    for (const prep::PassStats& ps : p.prep.passes) {
      if (ps.pass == "coi") coiSec += ps.seconds;
      else if (ps.pass == "const") constSec += ps.seconds;
      else if (ps.pass == "sweep") sweepSec += ps.seconds;
      else if (ps.pass == "latchcorr") corrSec += ps.seconds;
    }
    out << csvField(p.name) << ',' << csvField(p.path) << ','
        << mc::toString(p.verdict) << ',' << csvField(p.winnerEngine) << ','
        << p.steps << ',' << jsonNumber(p.seconds) << ',' << p.latches << ','
        << p.inputs << ',' << p.ands << ','
        << jsonNumber(p.prep.seconds) << ',' << p.prep.latchesAfter << ','
        << p.prep.inputsAfter << ',' << p.prep.andsAfter << ','
        << jsonNumber(coiSec) << ',' << jsonNumber(constSec) << ','
        << jsonNumber(sweepSec) << ',' << jsonNumber(corrSec) << ','
        << props << ',' << decs << ',' << confs << ','
        << rssMb(p.peakRssBytes) << ',' << p.aigPeakNodes << ','
        << p.bddPeakNodes << ',' << p.engineFailures << ',' << p.retries
        << ',' << (p.memLimitHit ? 1 : 0) << ',' << csvField(p.error)
        << '\n';
  }
}

}  // namespace cbq::portfolio
