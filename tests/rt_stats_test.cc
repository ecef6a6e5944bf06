#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "rt/rt_monitor.h"
#include "rt/rt_stats.h"

namespace ctrlshed {
namespace {

constexpr double kCost = 0.001;  // 1 ms nominal entry cost

RtMonitorOptions MonitorOptions() {
  RtMonitorOptions o;
  o.period = 1.0;
  o.headroom = 0.97;
  return o;
}

// Mimics one engine Publish: the worker republishes its cumulative
// counters back-to-back between pumps (single writer, relaxed stores).
void Publish(RtSharedStats* stats, uint64_t admitted, uint64_t departed,
             double busy, double drained, uint64_t queued,
             double outstanding) {
  stats->admitted.store(admitted, std::memory_order_relaxed);
  stats->departed.store(departed, std::memory_order_relaxed);
  stats->busy_seconds.store(busy, std::memory_order_relaxed);
  stats->drained_base_load.store(drained, std::memory_order_relaxed);
  stats->queued_tuples.store(queued, std::memory_order_relaxed);
  stats->outstanding_base_load.store(outstanding, std::memory_order_relaxed);
  stats->delay_sum.store(busy, std::memory_order_relaxed);
  stats->delay_count.store(departed, std::memory_order_relaxed);
}

// Regression for the documented Snapshot skew bound (rt_stats.h): a
// snapshot taken mid-pump mixes fresh ingress counters with engine
// mirrors from the previous Publish. The monitor's per-period deltas must
// stay non-negative anyway, because each field is individually monotonic —
// the exporter and timeline depend on that.
TEST(RtSharedStatsTest, MidPumpSkewNeverProducesNegativeRates) {
  RtSharedStats stats;
  RtMonitor monitor(kCost, 1, MonitorOptions());

  // Period 1: sources offered 100; the engine has pumped and published
  // all of them.
  stats.offered.fetch_add(100, std::memory_order_relaxed);
  Publish(&stats, /*admitted=*/100, /*departed=*/90, /*busy=*/0.09,
          /*drained=*/0.09, /*queued=*/10, /*outstanding=*/10 * kCost);
  PeriodMeasurement m1 = monitor.Sample({stats.Snapshot(1.0)}, 2.0);
  EXPECT_GE(m1.fin, 0.0);
  EXPECT_GE(m1.admitted, 0.0);
  EXPECT_GE(m1.fout, 0.0);
  EXPECT_GE(m1.queue, 0.0);

  // Period 2, snapshot lands MID-PUMP: sources have already bumped
  // offered by another 80, but the engine mirrors are still the previous
  // Publish (it is holding those 80 tuples in the rings). This is the
  // worst skew Snapshot allows — engine fields lag by one pump.
  stats.offered.fetch_add(80, std::memory_order_relaxed);
  PeriodMeasurement m2 = monitor.Sample({stats.Snapshot(2.0)}, 2.0);
  EXPECT_GE(m2.fin, 0.0);
  EXPECT_GE(m2.admitted, 0.0);  // delta is 0, not negative
  EXPECT_GE(m2.fout, 0.0);
  EXPECT_GE(m2.queue, 0.0);
  EXPECT_DOUBLE_EQ(m2.admitted, 0.0);
  EXPECT_DOUBLE_EQ(m2.fin, 80.0);

  // Period 3: the engine caught up. Nothing went backwards, so the
  // catch-up shows as a burst, never a negative.
  Publish(&stats, /*admitted=*/180, /*departed=*/170, /*busy=*/0.17,
          /*drained=*/0.17, /*queued=*/10, /*outstanding=*/10 * kCost);
  PeriodMeasurement m3 = monitor.Sample({stats.Snapshot(3.0)}, 2.0);
  EXPECT_GE(m3.fin, 0.0);
  EXPECT_GE(m3.admitted, 0.0);
  EXPECT_GE(m3.fout, 0.0);
  EXPECT_DOUBLE_EQ(m3.admitted, 80.0);
}

// Cross-field invariants may be transiently violated by one in-flight
// pump (guarantee 2 in rt_stats.h) — the mid-pump snapshot above has
// admitted lagging offered — but each field alone must be monotonic
// non-decreasing across snapshots even while writers are live.
TEST(RtSharedStatsTest, SnapshotFieldsMonotonicUnderConcurrentWriters) {
  RtSharedStats stats;
  std::atomic<bool> stop{false};

  // Ingress writer: multi-writer counters, fetch_add relaxed.
  std::thread ingress([&] {
    while (!stop.load(std::memory_order_acquire)) {
      stats.offered.fetch_add(3, std::memory_order_relaxed);
      stats.entry_shed.fetch_add(1, std::memory_order_relaxed);
      stats.ring_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Engine writer: single-writer cumulative mirrors, plain stores of
  // ever-increasing values — exactly what RtEngine::Publish does.
  std::thread engine([&] {
    uint64_t admitted = 0;
    double busy = 0.0;
    while (!stop.load(std::memory_order_acquire)) {
      admitted += 2;
      busy += 0.0001;
      Publish(&stats, admitted, admitted, busy, busy, admitted % 7,
              (admitted % 7) * kCost);
    }
  });

  RtSample prev = stats.Snapshot(0.0);
  for (int i = 0; i < 20000; ++i) {
    const RtSample s = stats.Snapshot(static_cast<double>(i + 1));
    EXPECT_GE(s.offered, prev.offered);
    EXPECT_GE(s.entry_shed, prev.entry_shed);
    EXPECT_GE(s.ring_dropped, prev.ring_dropped);
    EXPECT_GE(s.admitted, prev.admitted);
    EXPECT_GE(s.departed, prev.departed);
    EXPECT_GE(s.busy_seconds, prev.busy_seconds);
    EXPECT_GE(s.drained_base_load, prev.drained_base_load);
    EXPECT_GE(s.delay_sum, prev.delay_sum);
    EXPECT_GE(s.delay_count, prev.delay_count);
    prev = s;
  }

  stop.store(true, std::memory_order_release);
  ingress.join();
  engine.join();
}

TEST(RtSharedStatsDeathTest, MonitorRejectsBackwardsTime) {
  RtSharedStats stats;
  RtMonitor monitor(kCost, 1, MonitorOptions());
  stats.offered.fetch_add(10, std::memory_order_relaxed);
  monitor.Sample({stats.Snapshot(1.0)}, 2.0);
  EXPECT_DEATH(monitor.Sample({stats.Snapshot(0.5)}, 2.0), "forward");
}

}  // namespace
}  // namespace ctrlshed
