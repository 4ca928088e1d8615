// Debug-mode owning-thread checks: a pool worker — or any foreign thread —
// touching a serial-phase Gauge, or an unsharded LogHistogram's base
// state, must fail fast instead of silently racing. The checks ride
// BC_DASSERT, so they are live in Debug builds (the `validate` preset) and
// compile out under NDEBUG; the release half of this file asserts exactly
// that.
#include <thread>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "util/concurrency/shard_slot.hpp"
#include "util/concurrency/thread_pool.hpp"

namespace bc::obs {
namespace {

#ifndef NDEBUG

TEST(ObsOwnerCheckDeathTest, GaugeTouchedInsidePoolChunkDies) {
  Gauge g;
  EXPECT_DEATH(
      {
        // What ThreadPool::parallel_for installs around a worker chunk.
        const util::ShardSlotScope slot(1);
        g.set(1.0);
      },
      "BC_ASSERT failed");
}

TEST(ObsOwnerCheckDeathTest, GaugeTouchedFromForeignThreadDies) {
  Gauge g;
  EXPECT_DEATH(
      {
        std::thread t([&g] { g.add(1.0); });
        t.join();
      },
      "BC_ASSERT failed");
}

TEST(ObsOwnerCheckDeathTest, UnshardedLogHistogramInsideChunkDies) {
  // No shard covers the chunk's slot, so observe() would race on the
  // base state — the fallback is debug-checked to slot 0 only.
  LogHistogram h(LogSpec::magnitude(), 0);
  EXPECT_DEATH(
      {
        const util::ShardSlotScope slot(1);
        h.observe(4.0);
      },
      "BC_ASSERT failed");
}

TEST(ObsOwnerCheckDeathTest, RealPoolWorkerTouchingGaugeDies) {
  // End-to-end: an actual worker chunk (slot >= 1 on a foreign thread)
  // trips the check; the caller-executed chunk 0 alone would pass.
  EXPECT_DEATH(
      {
        Gauge g;
        util::ThreadPool pool(2);
        pool.parallel_for(8, [&g](std::size_t) { g.add(1.0); });
      },
      "BC_ASSERT failed");
}

#else  // NDEBUG

TEST(ObsOwnerCheck, CompiledOutInReleaseBuilds) {
  // Release builds drop the check entirely (hot-loop budget); the touch
  // must go through untripped.
  Gauge g;
  {
    const util::ShardSlotScope slot(1);
    g.set(1.0);
  }
  EXPECT_EQ(g.value(), 1.0);
}

#endif

}  // namespace
}  // namespace bc::obs
