// Scoped wall-time profiling: per-site call counts and inclusive time.
//
// Usage — one macro at the top of a hot function or block:
//
//   void Engine::step() {
//     BC_OBS_SCOPE("sim.dispatch");
//     ...
//   }
//
// The macro resolves the site once (function-local static reference) and
// constructs a ScopedTimer. While the profiler is disabled — the default —
// the timer constructor is a single branch and no clock is read, keeping
// instrumented hot paths within noise of uninstrumented ones. Enabled, the
// cost is two monotonic-clock reads plus one short mutex section per scope.
//
// Sites aggregate *inclusive* wall time: a scope nested inside another
// contributes to both. Recursive re-entry of the same site counts every
// call but accumulates time only at the outermost level, so recursion does
// not multiply elapsed time.
//
// Thread safety: BC_OBS_SCOPE may run on bc::util::ThreadPool workers (the
// batch reputation sweeps profile maxflow per evaluator). The recursion
// guard is therefore *thread-local* — each thread tracks its own nesting
// depth per site, so two threads inside the same site do not corrupt each
// other's outermost-frame attribution — and the calls/nanos tallies are
// merged under the profiler's annotated Mutex in record(). Under a pool,
// `nanos` sums the wall time of every thread's outermost frames (total CPU
// attribution, not elapsed time). enabled() is a relaxed flag toggled
// during single-threaded setup.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/concurrency/atomic.hpp"
#include "util/concurrency/mutex.hpp"

namespace bc::obs {

struct ProfileSite {
  std::string name;
  /// calls/nanos are written through Profiler::record() under the owning
  /// profiler's mutex; read them directly only while no pool is running.
  std::uint64_t calls = 0;
  std::uint64_t nanos = 0;  // inclusive wall time, outermost frames only
  /// Process-unique slot in the thread-local recursion-depth table,
  /// assigned at creation and immutable afterwards (lock-free to read).
  std::uint32_t tls_slot = 0;
};

class Profiler {
 public:
  Profiler() = default;

  /// The process-wide profiler that BC_OBS_SCOPE sites register with.
  static Profiler& instance();

  bool enabled() const { return enabled_.load(); }
  /// Toggle while single-threaded (setup / between runs), like all
  /// configuration in this codebase.
  void set_enabled(bool on) { enabled_.store(on); }

  /// Finds or creates the named site; the reference stays valid for the
  /// profiler's lifetime (node-based storage).
  ProfileSite& site(std::string_view name);

  /// Merges one finished scope into `site`: always counts the call, adds
  /// the elapsed time only for a thread's outermost frame of that site.
  void record(ProfileSite& site, std::uint64_t elapsed_nanos, bool outermost);

  /// Value-copies of all sites, sorted by name (deterministic export).
  std::vector<ProfileSite> snapshot() const;

  std::size_t num_sites() const;

  /// Zeroes calls/time but keeps site registrations and references valid.
  void reset_values();

 private:
  mutable util::Mutex mu_;
  util::RelaxedBool enabled_;
  std::map<std::string, ProfileSite, std::less<>> sites_ BC_GUARDED_BY(mu_);
};

/// RAII accumulator for one site. Reads the profiler's enabled flag once,
/// at construction; a scope that straddles an enable/disable toggle is
/// attributed per the state at entry.
class ScopedTimer {
 public:
  ScopedTimer(ProfileSite& site, Profiler& profiler);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ProfileSite* site_ = nullptr;  // null when the profiler was disabled
  Profiler* profiler_ = nullptr;
  std::uint64_t start_ = 0;
};

/// Wall-time stopwatch for benches, on the profiler's monotonic clock (the
/// one wall clock the determinism rules sanction). Starts at construction;
/// construct a new one to restart.
class Stopwatch {
 public:
  Stopwatch();

  double elapsed_ms() const;

 private:
  std::uint64_t start_ = 0;
};

}  // namespace bc::obs

#define BC_OBS_CONCAT_INNER(a, b) a##b
#define BC_OBS_CONCAT(a, b) BC_OBS_CONCAT_INNER(a, b)

/// Profiles the enclosing scope under `site_name` (a string literal).
#define BC_OBS_SCOPE(site_name)                                          \
  static ::bc::obs::ProfileSite& BC_OBS_CONCAT(bc_obs_site_, __LINE__) = \
      ::bc::obs::Profiler::instance().site(site_name);                   \
  const ::bc::obs::ScopedTimer BC_OBS_CONCAT(bc_obs_timer_, __LINE__)(   \
      BC_OBS_CONCAT(bc_obs_site_, __LINE__),                             \
      ::bc::obs::Profiler::instance())
