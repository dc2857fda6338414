#pragma once
// Deterministic fault injection — the robustness layer's test probe.
//
// A service that must degrade gracefully under engine crashes, allocation
// blow-ups and corrupt inputs needs a way to MAKE those failures happen on
// demand, deterministically, in any build. CBQ_FAULT_POINT("site") marks
// the places where production code can fail for real (BDD node
// allocation, SAT solve entry, AIG growth, chunked file reads, engine
// resume, prep passes); the process-wide FaultInjector, armed from
// `cbq --inject 'site[:nth|:prob=p][:mode]' --inject-seed S` or directly
// by tests, decides per hit whether to fire and how:
//
//   throw  — throw util::InjectedFault (a std::runtime_error)
//   oom    — throw std::bad_alloc (fake out-of-memory)
//   fail   — make the site report failure through its normal channel
//            (solver returns Undef, reader reports EOF); only sites that
//            poll CBQ_FAULT_FAIL support this, others treat it as throw
//   stall  — sleep in short cancellation-friendly increments (watchdog
//            and slow-engine testing), then continue normally
//   nonstd — throw a non-std::exception type (an int), exercising the
//            catch (...) barriers that keep even foreign exceptions from
//            killing a worker
//
// Trigger spec: `site` alone fires on the first hit; `site:K` on the
// K-th hit; `site:prob=P` on each hit with probability P from an RNG
// seeded by --inject-seed (same seed + same schedule = same run).
//
// Disarmed cost is one relaxed atomic load per site hit — the same
// budget as a disarmed CBQ_OBS_SPAN — and -DCBQ_FAULTS=OFF compiles the
// macros away entirely (CI gates that build at zero measurable overhead).

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/sync.hpp"

namespace cbq::util {

/// What an armed fault does when it fires.
enum class FaultMode : std::uint8_t { Throw, Fail, Stall, Oom, NonStd };

/// The exception thrown by throw-mode faults. Deliberately a plain
/// runtime_error subclass: containment barriers must not special-case it.
struct InjectedFault : std::runtime_error {
  explicit InjectedFault(const std::string& site)
      : std::runtime_error("injected fault at " + site) {}
};

/// One armed fault site.
struct FaultSpec {
  std::string site;
  FaultMode mode = FaultMode::Throw;
  std::uint64_t nth = 1;   ///< fire on the nth hit (ignored when prob > 0)
  double prob = 0.0;       ///< per-hit fire probability (0 = use nth)
  int stallMs = 200;       ///< total stall duration for Stall mode
};

/// Per-site observability: how often the site was reached and fired.
struct FaultSiteStats {
  std::string site;
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};

/// The process-wide injector. Thread-safe: sites are hit concurrently by
/// racing engines, session workers and batch workers. Arm/disarm are meant for
/// test setup and CLI start-up, not for mid-run reconfiguration.
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// True when any site is armed — the macro's fast path. A single
  /// relaxed load; never taken in production runs.
  [[nodiscard]] static bool armedFast() {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Parses and arms one spec: `site[:K][:prob=P][:mode][:stall=MS]`
  /// where mode is throw|fail|stall|oom|nonstd. Returns false (arming
  /// nothing) on a malformed spec; `error` gets the reason.
  bool arm(const std::string& spec, std::string* error = nullptr);

  /// Arms a pre-built spec (tests).
  void armSpec(FaultSpec spec);

  /// Seeds the probability RNG; call before arm() for reproducible runs.
  void seed(std::uint64_t s);

  /// Clears every armed site and resets hit counters.
  void disarm();

  /// The slow path behind CBQ_FAULT_POINT: may throw InjectedFault /
  /// std::bad_alloc / int, or sleep (Stall). Fail-mode specs do not fire
  /// here — they only answer shouldFail().
  void hit(const char* site);

  /// The slow path behind CBQ_FAULT_FAIL: true when a fail-mode spec for
  /// `site` fires on this hit.
  [[nodiscard]] bool shouldFail(const char* site);

  /// Total fires across all sites since the last disarm().
  [[nodiscard]] std::uint64_t fireCount() const;

  /// Per-site hit/fire counters, armed sites only.
  [[nodiscard]] std::vector<FaultSiteStats> stats() const;

  /// The fault-site catalogue (README "Robustness" keeps the semantics).
  static const std::vector<std::string>& knownSites();

 private:
  FaultInjector() = default;

  struct Armed {
    FaultSpec spec;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
  };

  /// Decides whether `a` fires on this hit, updating counters.
  bool fires(Armed& a);

  void fire(const Armed& a, const char* site);

  static std::atomic<bool> armed_;
  mutable Mutex mu_;
  /// Guarded layout only: Armed objects stay at a stable address once
  /// armed and are hit through raw pointers outside the lock (their
  /// counters are atomics; spec is immutable after arm).
  std::vector<std::unique_ptr<Armed>> sites_ CBQ_GUARDED_BY(mu_);
  std::uint64_t rngState_ CBQ_GUARDED_BY(mu_) = 0x9e3779b97f4a7c15ull;
};

}  // namespace cbq::util

// The site macros. CBQ_FAULT_POINT marks a place that can throw/stall;
// CBQ_FAULT_FAIL is an expression a site folds into its own failure path
// (e.g. `if (CBQ_FAULT_FAIL("sat.solve")) return Status::Undef;`).
#if !defined(CBQ_NO_FAULTS)
#define CBQ_FAULT_POINT(site)                              \
  do {                                                     \
    if (::cbq::util::FaultInjector::armedFast())           \
      ::cbq::util::FaultInjector::instance().hit(site);    \
  } while (0)
#define CBQ_FAULT_FAIL(site)                     \
  (::cbq::util::FaultInjector::armedFast() &&    \
   ::cbq::util::FaultInjector::instance().shouldFail(site))
#else
#define CBQ_FAULT_POINT(site) \
  do {                        \
  } while (0)
#define CBQ_FAULT_FAIL(site) false
#endif
