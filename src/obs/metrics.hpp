// Metrics registry: named counters, gauges, and sharded log-bucket
// (HDR-style) histograms.
//
// Call sites cache the instrument reference once (typically in a
// function-local static) and touch only the instrument afterwards:
//
//   static obs::Counter& exchanges =
//       obs::Registry::instance().counter("gossip.exchanges");
//   exchanges.inc();
//
// Registry storage is node-based (std::map), so references returned by
// counter()/gauge()/log_histogram() stay valid for the registry's
// lifetime, including across reset_values(). Snapshots iterate the maps
// in key order, which makes exported output deterministic run-to-run.
//
// Thread safety and sharding: instrumented code may run on
// bc::util::ThreadPool workers (the batch reputation sweeps), so the
// instrument maps are guarded by an annotated Mutex, and the two
// *recording* instruments — Counter and LogHistogram — are sharded:
// after Registry::configure_shards(n), each holds one cache-line-padded
// slot per parallel_for chunk and routes recordings through
// util::current_shard_slot(). Shard state is integer-only (counts and
// fixed-point sums), and merges walk slots in ascending order, so merged
// snapshots are bit-identical at any thread count — integer addition
// commutes and associates, unlike the double accumulation the serial-phase
// instruments keep. Counters additionally fall back to a relaxed-atomic
// add when no shard slot covers the caller, so they are safe from any
// thread even before configure_shards().
//
// Gauges remain serial-phase instruments: their state is a `double`
// (last-writer-wins), which no commutative merge can make bit-stable
// across thread counts. They are only touched from engine callbacks and
// finalize(); a debug-mode owning-thread check (active under the
// `validate` preset) makes a pool worker touching one fail fast instead
// of silently racing.
//
// The registry does not know about simulation time; periodic snapshots are
// driven externally (see obs/stream.hpp, obs/export.hpp and
// community::CommunitySimulator).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"
#include "util/checked.hpp"
#include "util/concurrency/atomic.hpp"
#include "util/concurrency/mutex.hpp"
#include "util/concurrency/shard_slot.hpp"

namespace bc::obs {

/// One per-chunk shard cell, padded to a cache line so two chunks never
/// false-share. Written by exactly one thread (the chunk's executor)
/// between barriers; read/merged only at serial phases.
struct alignas(64) ShardCell {
  std::uint64_t value = 0;
};

/// Monotonically increasing event count. Safe to increment from pool
/// workers: with shards enabled the increment is a plain add on the
/// caller's chunk cell; otherwise it is a relaxed-atomic add. Either way
/// the total is order-independent (integer addition commutes).
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    const std::size_t slot = util::current_shard_slot();
    if (slot < shards_.size()) {
      shards_[slot].value += n;
      return;
    }
    value_.add(n);
  }

  /// Merged total: base plus every shard, ascending slot order.
  std::uint64_t value() const {
    std::uint64_t v = value_.load();
    for (const ShardCell& s : shards_) v += s.value;
    return v;
  }

  /// Serial-phase only: folds shards into the base and overwrites the
  /// total (used to republish externally-tracked totals, e.g. the
  /// reputation-cache tallies, through the windowed stream).
  void store_total(std::uint64_t v) {
    for (ShardCell& s : shards_) s.value = 0;
    value_.store(v);
  }

  /// Serial-phase only (a phase barrier): moves shard partials into the
  /// base so shard cells start the next parallel phase at zero.
  void fold_shards() {
    std::uint64_t folded = 0;
    for (ShardCell& s : shards_) {
      folded += s.value;
      s.value = 0;
    }
    if (folded > 0) value_.add(folded);
  }

  /// Serial-phase only: grows the shard array to `n` slots (never
  /// shrinks, so references and running totals survive reconfiguration).
  void enable_shards(std::size_t n) {
    if (n > shards_.size()) shards_.resize(n);
  }

  void reset() {
    value_.store(0);
    for (ShardCell& s : shards_) s.value = 0;
  }

 private:
  util::RelaxedCounter value_;
  std::vector<ShardCell> shards_;
};

/// Point-in-time measurement (last writer wins). Serial-phase only: set
/// from engine callbacks or finalize(), never from pool workers — the
/// debug owning-thread check below fails fast under the validate preset.
class Gauge {
 public:
  void set(double v) {
    debug_check_serial_phase();
    value_ = v;
  }
  void add(double d) {
    debug_check_serial_phase();
    value_ += d;
  }
  double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  void debug_check_serial_phase() const {
    // Slot != 0 means we are inside a pool worker's parallel_for chunk;
    // a foreign thread tag means another thread entirely. Both are the
    // race-by-convention this instrument's contract forbids.
    BC_DASSERT(util::current_shard_slot() == 0 &&
               util::current_thread_tag() == owner_);
  }

  double value_ = 0.0;
  /// Owning thread, captured at creation (debug-check identity only —
  /// never ordered or hashed, so no pointer-order nondeterminism).
  const void* owner_ = util::current_thread_tag();
};

/// Geometry of a LogHistogram: sign-symmetric logarithmic buckets —
/// power-of-two octaves split into 2^sub_bits linear sub-buckets (the
/// HDR-histogram shape). Memory is O(octaves * sub-buckets), fixed at
/// construction and independent of how many values are recorded.
struct LogSpec {
  /// |v| below 2^min_exp2 (including 0) lands in the dedicated zero
  /// bucket; |v| at or above 2^max_exp2 clamps into the top sub-bucket.
  int min_exp2 = -20;
  int max_exp2 = 40;
  /// Sub-buckets per octave = 2^sub_bits: relative bucket width
  /// ~2^-sub_bits (3 -> ~12% worst-case quantile error).
  unsigned sub_bits = 3;
  /// Mirror the positive layout for negative values.
  bool with_negative = false;
  /// sum() is accumulated in fixed point with quantum 2^-sum_frac_bits,
  /// so shard merges stay integer (deterministic at any thread count).
  int sum_frac_bits = 20;

  /// Seconds-scale durations: ~1 us resolution up to ~2^20 s.
  static LogSpec latency_seconds() { return {-20, 20, 3, false, 20}; }
  /// Byte counts / cardinalities: 1 .. 2^40.
  static LogSpec magnitude() { return {0, 40, 3, false, 0}; }
  /// Signed scores in [-1, 1] (BarterCast reputations): resolution
  /// 2^-12 ~ 2.4e-4 near zero.
  static LogSpec signed_unit() { return {-12, 1, 3, true, 20}; }
};

/// Sharded logarithmic-bucket histogram with O(buckets) merge and
/// quantile summaries. All state is integer (bucket counts plus a
/// fixed-point sum), bucket indexing is exact integer math on the
/// mantissa/exponent (std::frexp — no transcendental rounding), and
/// merges are commutative sums, so merged snapshots are bit-identical at
/// any thread count. Buckets are stored in ascending *value* order
/// (negative octaves high-to-low magnitude, zero, positive octaves
/// low-to-high), so quantile() is one forward scan.
class LogHistogram {
 public:
  LogHistogram(const LogSpec& spec, std::size_t num_shards);

  /// Records one value (NaN is a caller bug). Routes to the caller's
  /// shard slot; without a covering shard, falls back to the serial base
  /// state — which a pool chunk must never touch (debug-checked).
  void observe(double v) {
    const std::size_t idx = index_of(v);
    const std::int64_t units = to_units(v);
    const std::size_t slot = util::current_shard_slot();
    if (slot < shards_.size()) {
      Shard& s = shards_[slot];
      ++s.counts[idx];
      ++s.total;
      // Fixed-point sums saturate: a histogram must degrade, not abort
      // or wrap, when fed month-scale totals.
      s.sum_units = util::saturating_add(s.sum_units, units);
      return;
    }
    BC_DASSERT(slot == 0);  // pool chunk without a shard would race
    ++counts_[idx];
    ++total_;
    sum_units_ = util::saturating_add(sum_units_, units);
  }

  const LogSpec& spec() const { return spec_; }
  std::size_t num_buckets() const { return counts_.size(); }

  /// Bucket index a value lands in (exposed for tests/export tooling).
  std::size_t index_of(double v) const;
  /// Upper value bound of bucket `i` (buckets ascend in value).
  double upper_edge(std::size_t i) const;

  // Merged views (serial-phase): base plus shards, ascending slot order.
  std::uint64_t count(std::size_t i) const;
  std::uint64_t total() const;
  std::int64_t sum_units() const;
  double sum() const;
  /// Upper edge of the bucket holding the q-quantile (q in [0, 1]) of
  /// everything recorded; 0 when empty.
  double quantile(double q) const;
  /// Upper edge of the highest non-empty bucket; 0 when empty.
  double max_value() const;

  /// Serial-phase only (a phase barrier): folds shard state into the
  /// base, zeroing the shards for the next parallel phase.
  void fold_shards();
  /// Serial-phase only: grows the shard array to `n` slots.
  void enable_shards(std::size_t n);
  /// Adds `other`'s merged state into this base. O(buckets); specs must
  /// have identical geometry.
  void merge_from(const LogHistogram& other);

  void reset();

 private:
  struct Shard {
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    std::int64_t sum_units = 0;
  };

  std::int64_t to_units(double v) const;

  LogSpec spec_;
  std::size_t per_sign_ = 0;  // buckets per sign = octaves * 2^sub_bits
  std::size_t zero_index_ = 0;
  double min_mag_ = 0.0;  // 2^min_exp2
  std::vector<std::uint64_t> counts_;  // base state, ascending value order
  std::uint64_t total_ = 0;
  std::int64_t sum_units_ = 0;
  std::vector<Shard> shards_;
};

/// Value-copies of every instrument, sorted by name.
struct LogHistogramSnapshot {
  std::string name;
  /// Non-empty buckets only, ascending index (= ascending value).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
  /// Upper value edge of each entry in `buckets` (parallel vector) — lets
  /// consumers (the windowed stream) compute quantiles over bucket deltas
  /// without the histogram's geometry at hand.
  std::vector<double> bucket_edges;
  std::uint64_t total = 0;
  double sum = 0.0;
  /// Exact fixed-point sum (quantum 2^-sum_frac_bits): integer, so window
  /// deltas between snapshots subtract exactly.
  std::int64_t sum_units = 0;
  int sum_frac_bits = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<LogHistogramSnapshot> log_histograms;
};

class Registry {
 public:
  Registry() = default;

  /// The process-wide registry used by the BC instrumentation sites.
  static Registry& instance();

  /// Finds or creates the named instrument. References stay valid for the
  /// registry's lifetime. For log_histogram(), the spec argument is
  /// consumed only on first creation; later lookups ignore it.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LogHistogram& log_histogram(std::string_view name, const LogSpec& spec);

  /// Serial-phase only: guarantees every sharded instrument (existing and
  /// future) has at least `n` shard slots — call with the ThreadPool size
  /// before the first parallel phase that records. Never shrinks.
  void configure_shards(std::size_t n);
  std::size_t shard_slots() const;

  /// Serial-phase only (the phase-barrier merge): folds every sharded
  /// instrument's shard partials into its base state, ascending slot
  /// order, leaving shards zeroed for the next parallel phase.
  void fold_shards();

  Snapshot snapshot() const;

  std::size_t num_instruments() const;

  /// Zeroes every instrument but keeps registrations (and therefore all
  /// outstanding references) intact.
  void reset_values();

 private:
  mutable util::Mutex mu_;
  std::size_t shard_slots_ BC_GUARDED_BY(mu_) = 0;
  std::map<std::string, Counter, std::less<>> counters_ BC_GUARDED_BY(mu_);
  std::map<std::string, Gauge, std::less<>> gauges_ BC_GUARDED_BY(mu_);
  std::map<std::string, LogHistogram, std::less<>> log_histograms_
      BC_GUARDED_BY(mu_);
};

}  // namespace bc::obs
