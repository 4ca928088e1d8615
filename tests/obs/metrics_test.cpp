#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

namespace bc::obs {
namespace {

TEST(ObsRegistry, CounterFindOrCreateAndIncrement) {
  Registry r;
  Counter& c = r.counter("a.events");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Second lookup returns the same instrument, not a fresh one.
  EXPECT_EQ(&r.counter("a.events"), &c);
  EXPECT_EQ(r.counter("a.events").value(), 5u);
  EXPECT_EQ(r.num_instruments(), 1u);
}

TEST(ObsRegistry, GaugeSetAddAndReset) {
  Registry r;
  Gauge& g = r.gauge("queue.depth");
  g.set(3.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsRegistry, ReferencesSurviveLaterInsertions) {
  Registry r;
  Counter& m = r.counter("m");
  m.inc(7);
  // Insertions on either side of "m" must not invalidate the reference
  // (node-based storage guarantee the call sites rely on).
  for (int i = 0; i < 64; ++i) {
    r.counter(std::string("a").append(std::to_string(i)));
    r.counter(std::string("z").append(std::to_string(i)));
  }
  EXPECT_EQ(m.value(), 7u);
  m.inc();
  EXPECT_EQ(r.counter("m").value(), 8u);
}

TEST(ObsRegistry, SnapshotIsNameSorted) {
  Registry r;
  r.counter("zeta").inc(1);
  r.counter("alpha").inc(2);
  r.counter("mid").inc(3);
  r.gauge("g2").set(2.0);
  r.gauge("g1").set(1.0);
  const Snapshot s = r.snapshot();
  ASSERT_EQ(s.counters.size(), 3u);
  EXPECT_EQ(s.counters[0].first, "alpha");
  EXPECT_EQ(s.counters[1].first, "mid");
  EXPECT_EQ(s.counters[2].first, "zeta");
  EXPECT_EQ(s.counters[0].second, 2u);
  ASSERT_EQ(s.gauges.size(), 2u);
  EXPECT_EQ(s.gauges[0].first, "g1");
  EXPECT_EQ(s.gauges[1].first, "g2");
}

TEST(ObsRegistry, SnapshotIsDeterministicAcrossInsertionOrders) {
  Registry a;
  a.counter("x").inc(1);
  a.counter("y").inc(2);
  Registry b;
  b.counter("y").inc(2);
  b.counter("x").inc(1);
  const Snapshot sa = a.snapshot();
  const Snapshot sb = b.snapshot();
  ASSERT_EQ(sa.counters.size(), sb.counters.size());
  for (std::size_t i = 0; i < sa.counters.size(); ++i) {
    EXPECT_EQ(sa.counters[i], sb.counters[i]);
  }
}

TEST(ObsRegistry, ResetValuesKeepsRegistrationsAndReferences) {
  Registry r;
  Counter& c = r.counter("c");
  c.inc(10);
  Gauge& g = r.gauge("g");
  g.set(4.0);
  LogHistogram& h = r.log_histogram("h", LogSpec::signed_unit());
  const std::size_t buckets = h.num_buckets();
  h.observe(0.5);
  r.reset_values();
  EXPECT_EQ(r.num_instruments(), 3u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.total(), 0u);
  // Histogram shape survives the reset even though the counts are zeroed.
  EXPECT_EQ(h.num_buckets(), buckets);
  c.inc();
  EXPECT_EQ(r.counter("c").value(), 1u);
}

}  // namespace
}  // namespace bc::obs
