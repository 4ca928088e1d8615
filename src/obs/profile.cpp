#include "obs/profile.hpp"

#include <chrono>
#include <vector>

namespace bc::obs {

namespace {

std::uint64_t now_nanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-wide slot allocator for the thread-local depth table. Shared by
/// every Profiler object (tests create their own instances), so a slot
/// never refers to two different sites within one thread.
util::RelaxedCounter& slot_allocator() {
  static util::RelaxedCounter counter;
  return counter;
}

/// Per-thread recursion depths, indexed by ProfileSite::tls_slot. Grows on
/// first use of a site on this thread; pool workers get their own table, so
/// concurrent scopes of one site on different threads track independent
/// nesting depths (the outermost-frame test stays per-thread).
std::uint32_t& tls_depth(std::uint32_t slot) {
  thread_local std::vector<std::uint32_t> depths;
  if (depths.size() <= slot) depths.resize(slot + 1, 0);
  return depths[slot];
}

}  // namespace

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

ProfileSite& Profiler::site(std::string_view name) {
  util::LockGuard lock(mu_);
  if (auto it = sites_.find(name); it != sites_.end()) {
    return it->second;
  }
  auto [it, _] = sites_.emplace(std::string(name), ProfileSite{});
  it->second.name = it->first;
  it->second.tls_slot = static_cast<std::uint32_t>(slot_allocator().fetch_add(1));
  return it->second;
}

void Profiler::record(ProfileSite& site, std::uint64_t elapsed_nanos,
                      bool outermost) {
  util::LockGuard lock(mu_);
  ++site.calls;
  if (outermost) site.nanos += elapsed_nanos;
}

std::vector<ProfileSite> Profiler::snapshot() const {
  util::LockGuard lock(mu_);
  std::vector<ProfileSite> out;
  out.reserve(sites_.size());
  for (const auto& [_, site] : sites_) out.push_back(site);
  return out;
}

std::size_t Profiler::num_sites() const {
  util::LockGuard lock(mu_);
  return sites_.size();
}

void Profiler::reset_values() {
  util::LockGuard lock(mu_);
  for (auto& [_, site] : sites_) {
    site.calls = 0;
    site.nanos = 0;
  }
}

ScopedTimer::ScopedTimer(ProfileSite& site, Profiler& profiler) {
  if (!profiler.enabled()) return;
  site_ = &site;
  profiler_ = &profiler;
  ++tls_depth(site.tls_slot);
  start_ = now_nanos();
}

ScopedTimer::~ScopedTimer() {
  if (site_ == nullptr) return;
  const std::uint64_t elapsed = now_nanos() - start_;
  const bool outermost = --tls_depth(site_->tls_slot) == 0;
  profiler_->record(*site_, elapsed, outermost);
}

Stopwatch::Stopwatch() : start_(now_nanos()) {}

double Stopwatch::elapsed_ms() const {
  return static_cast<double>(now_nanos() - start_) / 1e6;
}

}  // namespace bc::obs
