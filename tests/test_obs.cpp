// Observability subsystem tests: metrics histograms and thread safety,
// span tracer determinism and JSON validity, concurrent emission from
// eight threads (run under TSan in CI), the disabled-mode no-allocation
// guarantee, ring-wrap drop accounting, NDJSON progress lines, and the
// steady-clock policy for every duration source.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "portfolio/budget.hpp"
#include "util/timer.hpp"

namespace {

using cbq::obs::Metrics;

// ---------------------------------------------------------------------
// Allocation counting. The global operator new/delete overrides count
// every heap allocation in this test binary; tests measure deltas around
// the region of interest. Only the count is test-specific — allocation
// itself delegates to malloc/free as usual.
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

// ---------------------------------------------------------------------
// A minimal recursive-descent JSON validator: the tracer and the progress
// streamer hand-roll their JSON, so "parses back" must be checked for
// real, not by substring search.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// One "X" event pulled out of a Chrome trace for containment checks.
struct TraceEv {
  int tid = 0;
  double ts = 0, dur = 0;
  std::string cat, name;
};

std::vector<TraceEv> extractEvents(const std::string& json) {
  std::vector<TraceEv> evs;
  std::size_t pos = 0;
  auto field = [&](const std::string& obj, const char* key) -> std::string {
    const std::string needle = std::string("\"") + key + "\": ";
    const std::size_t k = obj.find(needle);
    if (k == std::string::npos) return "";
    std::size_t v = k + needle.size();
    if (obj[v] == '"') {
      const std::size_t end = obj.find('"', v + 1);
      return obj.substr(v + 1, end - v - 1);
    }
    std::size_t end = v;
    while (end < obj.size() && obj[end] != ',' && obj[end] != '}') ++end;
    return obj.substr(v, end - v);
  };
  while ((pos = json.find("{\"ph\": \"X\"", pos)) != std::string::npos) {
    const std::size_t end = json.find('}', pos);
    const std::string obj = json.substr(pos, end - pos + 1);
    TraceEv ev;
    ev.tid = std::atoi(field(obj, "tid").c_str());
    ev.ts = std::atof(field(obj, "ts").c_str());
    ev.dur = std::atof(field(obj, "dur").c_str());
    ev.cat = field(obj, "cat");
    ev.name = field(obj, "name");
    evs.push_back(std::move(ev));
    pos = end;
  }
  return evs;
}

// Tracing state is process-global; every tracer test starts from scratch
// and leaves the tracer off.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cbq::obs::disableTracing();
    cbq::obs::clearTrace();
  }
  void TearDown() override {
    cbq::obs::disableTracing();
    cbq::obs::clearTrace();
  }
};

// ---------------------------------------------------------------------
// Metrics

TEST(MetricsHistogram, RecordsCountSumMax) {
  Metrics m;
  m.observe("sat.solve_seconds", 0.5);
  m.observe("sat.solve_seconds", 1.5);
  m.observe("sat.solve_seconds", 0.25);
  const auto h = m.histogram("sat.solve_seconds");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 2.25);
  EXPECT_DOUBLE_EQ(h.max, 1.5);
  std::uint64_t total = 0;
  for (const auto b : h.buckets) total += b;
  EXPECT_EQ(total, 3u);
}

TEST(MetricsHistogram, BucketsSeparateByMagnitude) {
  Metrics m;
  m.observe("lat", 1e-6);  // ~1 microsecond
  m.observe("lat", 1e-3);  // ~1 millisecond: ~10 buckets apart
  const auto h = m.histogram("lat");
  int firstBucket = -1, lastBucket = -1;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    if (firstBucket < 0) firstBucket = static_cast<int>(i);
    lastBucket = static_cast<int>(i);
  }
  EXPECT_GE(lastBucket - firstBucket, 8);
}

TEST(MetricsHistogram, MergeAddsBuckets) {
  Metrics a, b;
  a.observe("lat", 0.001);
  b.observe("lat", 0.002);
  b.observe("lat", 4.0);
  a.merge(b);
  const auto h = a.histogram("lat");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.max, 4.0);
  EXPECT_DOUBLE_EQ(h.sum, 4.003);
}

TEST(Metrics, ConcurrentAddsAreExact) {
  Metrics m;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&m] {
      for (int i = 0; i < kAdds; ++i) {
        m.add("counter");
        m.high("gauge", static_cast<double>(i));
        m.observe("lat", 1e-6);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(m.count("counter"), kThreads * kAdds);
  EXPECT_DOUBLE_EQ(m.gauge("gauge"), kAdds - 1);
  EXPECT_EQ(m.histogram("lat").count,
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, WriteJsonIsValid) {
  Metrics m;
  m.add("sat.conflicts", 42);
  m.high("bdd.peak_nodes", 1234.0);
  m.observe("sched.slice_seconds", 0.125);
  std::ostringstream os;
  m.writeJson(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("sat.conflicts"), std::string::npos);
  EXPECT_NE(json.find("bdd.peak_nodes"), std::string::npos);
  EXPECT_NE(json.find("sched.slice_seconds"), std::string::npos);
}

// ---------------------------------------------------------------------
// Tracer

TEST_F(TracerTest, NestedSpansAreContainedAndOrdered) {
  cbq::obs::enableTracing();
  {
    CBQ_OBS_SPAN("engine", "outer");
    {
      CBQ_OBS_SPAN("sat", "inner-1");
    }
    {
      CBQ_OBS_SPAN("sat", "inner-2");
    }
  }
  cbq::obs::disableTracing();

  std::ostringstream os;
  cbq::obs::writeChromeTrace(os);
  const std::string json = os.str();
  ASSERT_TRUE(JsonValidator(json).valid()) << json;

  const auto evs = extractEvents(json);
  ASSERT_EQ(evs.size(), 3u);
  // Ring order is completion order: inner spans close before the outer.
  EXPECT_EQ(evs[0].name, "inner-1");
  EXPECT_EQ(evs[1].name, "inner-2");
  EXPECT_EQ(evs[2].name, "outer");
  EXPECT_EQ(evs[2].cat, "engine");
  // Containment: both inner spans lie inside [outer.ts, outer.ts+dur],
  // and inner-1 finishes before inner-2 starts.
  const TraceEv& outer = evs[2];
  for (int i = 0; i < 2; ++i) {
    EXPECT_GE(evs[i].ts, outer.ts);
    EXPECT_LE(evs[i].ts + evs[i].dur, outer.ts + outer.dur + 1e-9);
    EXPECT_EQ(evs[i].tid, outer.tid);
  }
  EXPECT_LE(evs[0].ts + evs[0].dur, evs[1].ts + 1e-9);
}

TEST_F(TracerTest, ConcurrentEmissionFromThreads) {
  cbq::obs::enableTracing();
  constexpr int kThreads = 8;
  constexpr std::size_t kItemsPerThread = 50;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t] {
        cbq::obs::setThreadLabel("lane " + std::to_string(t));
        for (std::size_t i = 0; i < kItemsPerThread; ++i) {
          CBQ_OBS_SPAN("sweep", "work-item");
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  cbq::obs::disableTracing();

  std::ostringstream os;
  cbq::obs::writeChromeTrace(os);
  const std::string json = os.str();
  ASSERT_TRUE(JsonValidator(json).valid());

  std::size_t workSpans = 0;
  for (const auto& ev : extractEvents(json))
    if (ev.name == "work-item") ++workSpans;
  EXPECT_EQ(workSpans, kThreads * kItemsPerThread);
  // Every thread's label must appear as thread metadata.
  for (int t = 0; t < kThreads; ++t)
    EXPECT_NE(json.find("lane " + std::to_string(t)), std::string::npos);
}

TEST_F(TracerTest, DisabledSpansDoNotAllocate) {
  ASSERT_FALSE(cbq::obs::tracingEnabled());
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    CBQ_OBS_SPAN("engine", "never-recorded");
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(cbq::obs::traceStats().events, 0u);
}

TEST_F(TracerTest, RingWrapDropsOldestAndCounts) {
  cbq::obs::enableTracing(/*perThreadCapacity=*/8);
  for (int i = 0; i < 20; ++i) {
    CBQ_OBS_SPAN("sat", std::string("span-") + std::to_string(i));
  }
  cbq::obs::disableTracing();

  const auto stats = cbq::obs::traceStats();
  EXPECT_EQ(stats.events, 8u);
  EXPECT_EQ(stats.dropped, 12u);

  std::ostringstream os;
  cbq::obs::writeChromeTrace(os);
  const std::string json = os.str();
  ASSERT_TRUE(JsonValidator(json).valid());
  const auto evs = extractEvents(json);
  ASSERT_EQ(evs.size(), 8u);
  // The survivors are the newest 8, oldest-first after ring rotation.
  EXPECT_EQ(evs.front().name, "span-12");
  EXPECT_EQ(evs.back().name, "span-19");
}

TEST_F(TracerTest, EscapesSpecialCharactersInNames) {
  cbq::obs::enableTracing();
  {
    CBQ_OBS_SPAN("sat", "quote\"back\\slash");
  }
  cbq::obs::disableTracing();
  std::ostringstream os;
  cbq::obs::writeChromeTrace(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST_F(TracerTest, LongNamesAreTruncatedNotCorrupted) {
  cbq::obs::enableTracing();
  {
    CBQ_OBS_SPAN("sat", std::string(200, 'x'));
  }
  cbq::obs::disableTracing();
  std::ostringstream os;
  cbq::obs::writeChromeTrace(os);
  const std::string json = os.str();
  ASSERT_TRUE(JsonValidator(json).valid());
  const auto evs = extractEvents(json);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_LT(evs[0].name.size(), 48u);
  EXPECT_EQ(evs[0].name.find_first_not_of('x'), std::string::npos);
}

// ---------------------------------------------------------------------
// Progress streaming

TEST(Progress, StreamerEmitsOneValidJsonLinePerEvent) {
  std::ostringstream os;
  cbq::obs::ProgressStreamer streamer(os);
  cbq::obs::ProgressEvent ev;
  ev.kind = "slice";
  ev.problem = "counter4_safe.aag";
  ev.engine = "cbq-reach";
  ev.bound = 7;
  ev.effort = 123.5;
  ev.effortDelta = 10.25;
  ev.seconds = 0.125;
  ev.advanced = true;
  streamer.emit(ev);
  ev.kind = "result";
  ev.verdict = "SAFE";
  streamer.emit(ev);

  std::istringstream lines(os.str());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_TRUE(JsonValidator(line).valid()) << line;
  }
  EXPECT_EQ(n, 2);
  EXPECT_NE(os.str().find("\"kind\": \"slice\""), std::string::npos);
  EXPECT_NE(os.str().find("\"advanced\": true"), std::string::npos);
  EXPECT_NE(os.str().find("\"verdict\": \"SAFE\""), std::string::npos);
}

TEST(Progress, ConcurrentEmitKeepsLinesIntact) {
  std::ostringstream os;
  cbq::obs::ProgressStreamer streamer(os);
  constexpr int kThreads = 8;
  constexpr int kEvents = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&streamer, t] {
      cbq::obs::ProgressEvent ev;
      ev.kind = "slice";
      ev.engine = "engine-" + std::to_string(t);
      ev.seconds = 0.001;
      for (int i = 0; i < kEvents; ++i) streamer.emit(ev);
    });
  for (auto& t : threads) t.join();

  std::istringstream lines(os.str());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    ASSERT_TRUE(JsonValidator(line).valid()) << line;
  }
  EXPECT_EQ(n, kThreads * kEvents);
}

// ---------------------------------------------------------------------
// Clock policy: every duration source must be monotonic. The aliases are
// also pinned by static_asserts in timer.hpp / budget.hpp; these tests
// keep the policy visible and catch a re-aliasing to system_clock.

TEST(ClockPolicy, TimerUsesSteadyClock) {
  static_assert(cbq::util::Timer::Clock::is_steady,
                "Timer must use a monotonic clock");
  static_assert(
      std::is_same_v<cbq::util::Timer::Clock, std::chrono::steady_clock>,
      "Timer clock regressed away from steady_clock");
  cbq::util::Timer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(ClockPolicy, BudgetUsesSteadyClock) {
  static_assert(cbq::portfolio::Budget::Clock::is_steady,
                "Budget deadlines must use a monotonic clock");
  const cbq::portfolio::Budget budget(3600.0);
  EXPECT_FALSE(budget.timedOut());
  EXPECT_FALSE(budget.exhausted());
}

}  // namespace
