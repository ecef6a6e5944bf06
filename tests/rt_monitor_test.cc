// RtMonitor period bookkeeping, driven entirely by a fake clock: the
// monitor consumes RtSample snapshots, so a test can fabricate the exact
// counter trajectories a real run would produce and check the per-period
// math (rates over actual elapsed time, Eq. 11 delay estimate, cost
// estimation, measured-delay deltas) without any threads.

#include "rt/rt_monitor.h"

#include <gtest/gtest.h>

#include <vector>

namespace ctrlshed {
namespace {

constexpr double kNominalCost = 0.005;  // 5 ms per entry tuple

RtMonitorOptions Opts() {
  RtMonitorOptions o;
  o.period = 1.0;
  o.headroom = 1.0;
  return o;
}

TEST(RtMonitorTest, FirstSampleRatesAndQueue) {
  RtMonitor mon(kNominalCost, 1, Opts());

  RtSample s;
  s.now = 1.0;
  s.offered = 100;
  s.admitted = 80;
  s.drained_base_load = 60 * kNominalCost;  // 60 entry equivalents drained
  s.busy_seconds = 60 * kNominalCost;
  s.queued_tuples = 20;
  s.outstanding_base_load = 20 * kNominalCost;

  PeriodMeasurement m = mon.Sample({s}, 2.0);
  EXPECT_EQ(m.k, 1);
  EXPECT_DOUBLE_EQ(m.t, 1.0);
  EXPECT_DOUBLE_EQ(m.fin, 100.0);
  EXPECT_DOUBLE_EQ(m.admitted, 80.0);
  EXPECT_DOUBLE_EQ(m.fout, 60.0);
  EXPECT_DOUBLE_EQ(m.queue, 20.0);
  // Measured cost == nominal here, so y_hat = (q+1) c / H = 21 * 0.005.
  EXPECT_NEAR(m.y_hat, 21.0 * kNominalCost, 1e-12);
  EXPECT_FALSE(m.has_y_measured);
  EXPECT_DOUBLE_EQ(m.target_delay, 2.0);
}

TEST(RtMonitorTest, DeltasUseActualElapsedTime) {
  RtMonitor mon(kNominalCost, 1, Opts());

  RtSample s1;
  s1.now = 1.0;
  s1.offered = 100;
  mon.Sample({s1}, 2.0);

  // The controller thread overslept: this "1-second" period actually
  // spans 2 s of trace time. Rates must divide by the real elapsed time.
  RtSample s2 = s1;
  s2.now = 3.0;
  s2.offered = 400;              // +300 over 2 s -> 150/s
  s2.admitted = 200;             // +200 over 2 s -> 100/s
  s2.drained_base_load = 100 * kNominalCost;
  s2.busy_seconds = 100 * kNominalCost;

  PeriodMeasurement m = mon.Sample({s2}, 2.0);
  EXPECT_EQ(m.k, 2);
  EXPECT_DOUBLE_EQ(m.fin, 150.0);
  EXPECT_DOUBLE_EQ(m.admitted, 100.0);
  EXPECT_DOUBLE_EQ(m.fout, 50.0);
  // The controller still sees the nominal design period.
  EXPECT_DOUBLE_EQ(m.period, 1.0);
}

TEST(RtMonitorTest, BoundaryOnePeriodAfterThePreviousSpansExactlyT) {
  // Boundaries built by repeated t += T (how the sim and the cluster sim
  // compute their ticks) span exactly T, although e.g. 0.30000000000000004
  // - 0.2 != 0.1: each period's rate divides by the nominal period itself.
  RtMonitorOptions o = Opts();
  o.period = 0.1;
  RtMonitor mon(kNominalCost, 1, o);

  RtSample s;
  SimTime t = 0.0;
  for (int k = 1; k <= 30; ++k) {
    t += 0.1;
    const uint64_t offered = 3 + static_cast<uint64_t>(k % 7);
    s.now = t;
    s.offered += offered;
    const PeriodMeasurement m = mon.Sample({s}, 2.0);
    EXPECT_EQ(m.fin, static_cast<double>(offered) / 0.1) << "k=" << k;
    EXPECT_EQ(mon.shard_fin()[0], m.fin) << "k=" << k;
  }
}

TEST(RtMonitorTest, MeasuredCostTracksBusyOverDrained) {
  RtMonitor mon(kNominalCost, 1, Opts());

  RtSample s;
  s.now = 1.0;
  s.offered = 100;
  s.admitted = 100;
  // 100 entry equivalents drained but the CPU spent twice the nominal
  // work on them -> measured cost = 2 * nominal.
  s.drained_base_load = 100 * kNominalCost;
  s.busy_seconds = 2 * 100 * kNominalCost;
  s.queued_tuples = 10;
  s.outstanding_base_load = 10 * kNominalCost;

  PeriodMeasurement m = mon.Sample({s}, 2.0);
  EXPECT_NEAR(m.cost, 2 * kNominalCost, 1e-12);
  EXPECT_NEAR(m.y_hat, 11.0 * 2 * kNominalCost, 1e-12);
  EXPECT_NEAR(mon.CostEstimate(), 2 * kNominalCost, 1e-12);
}

TEST(RtMonitorTest, CostEstimateKeepsLastValueWhenNothingDrained) {
  RtMonitor mon(kNominalCost, 1, Opts());

  RtSample s1;
  s1.now = 1.0;
  s1.drained_base_load = 50 * kNominalCost;
  s1.busy_seconds = 1.5 * 50 * kNominalCost;
  PeriodMeasurement m1 = mon.Sample({s1}, 2.0);
  EXPECT_NEAR(m1.cost, 1.5 * kNominalCost, 1e-12);

  // An idle period (nothing drained) must not corrupt the estimate.
  RtSample s2 = s1;
  s2.now = 2.0;
  PeriodMeasurement m2 = mon.Sample({s2}, 2.0);
  EXPECT_NEAR(m2.cost, 1.5 * kNominalCost, 1e-12);
  EXPECT_DOUBLE_EQ(m2.fout, 0.0);
}

TEST(RtMonitorTest, MeasuredDelayIsPerPeriodDelta) {
  RtMonitor mon(kNominalCost, 1, Opts());

  RtSample s1;
  s1.now = 1.0;
  s1.delay_sum = 10.0;
  s1.delay_count = 5;
  PeriodMeasurement m1 = mon.Sample({s1}, 2.0);
  ASSERT_TRUE(m1.has_y_measured);
  EXPECT_DOUBLE_EQ(m1.y_measured, 2.0);

  // No departures this period: the stale cumulative sums must not be
  // re-reported.
  RtSample s2 = s1;
  s2.now = 2.0;
  PeriodMeasurement m2 = mon.Sample({s2}, 2.0);
  EXPECT_FALSE(m2.has_y_measured);

  RtSample s3 = s2;
  s3.now = 3.0;
  s3.delay_sum = 16.0;  // +6 over +2 departures -> mean 3
  s3.delay_count = 7;
  PeriodMeasurement m3 = mon.Sample({s3}, 2.0);
  ASSERT_TRUE(m3.has_y_measured);
  EXPECT_DOUBLE_EQ(m3.y_measured, 3.0);
}

TEST(RtMonitorTest, EmptyQueueClampsResidue) {
  RtMonitor mon(kNominalCost, 1, Opts());
  RtSample s;
  s.now = 1.0;
  s.queued_tuples = 0;
  s.outstanding_base_load = 1e-16;  // incremental bookkeeping residue
  PeriodMeasurement m = mon.Sample({s}, 2.0);
  EXPECT_DOUBLE_EQ(m.queue, 0.0);
}

TEST(RtMonitorTest, AdaptiveHeadroomConvergesUnderSaturation) {
  RtMonitorOptions o = Opts();
  o.headroom = 0.90;  // wrong belief; the "engine" actually gets 0.6
  o.adapt_headroom = true;
  o.headroom_ewma = 0.5;
  RtMonitor mon(kNominalCost, 1, o);

  RtSample s;
  double busy = 0.0;
  for (int k = 1; k <= 20; ++k) {
    s.now = static_cast<double>(k);
    busy += 0.6;  // saturated CPU doing 0.6 s of work per second
    s.busy_seconds = busy;
    s.drained_base_load = busy;
    s.queued_tuples = 100;  // persistently backlogged
    s.outstanding_base_load = 100 * kNominalCost;
    mon.Sample({s}, 2.0);
  }
  EXPECT_NEAR(mon.HeadroomEstimate(), 0.6, 0.01);
}

TEST(RtMonitorDeathTest, RejectsNonMonotonicTime) {
  RtMonitor mon(kNominalCost, 1, Opts());
  RtSample s;
  s.now = 2.0;
  mon.Sample({s}, 2.0);
  s.now = 1.5;
  EXPECT_DEATH(mon.Sample({s}, 2.0), "forward");
}

// --- Multi-shard aggregation -----------------------------------------------

TEST(RtMonitorShardedTest, SkewedShardsAggregateToOnePlant) {
  // Two shards, maximally skewed: shard 0 idle, shard 1 overloaded. The
  // controller must see exactly the single plant the shard sums describe.
  RtMonitor mon(kNominalCost, /*num_shards=*/2, Opts());

  RtSample idle;
  idle.now = 1.0;

  RtSample busy;
  busy.now = 1.0;
  busy.offered = 200;
  busy.admitted = 160;
  busy.drained_base_load = 120 * kNominalCost;
  busy.busy_seconds = 120 * kNominalCost;
  busy.queued_tuples = 40;
  busy.outstanding_base_load = 40 * kNominalCost;
  busy.delay_sum = 12.0;
  busy.delay_count = 4;

  PeriodMeasurement m = mon.Sample({idle, busy}, 2.0);
  EXPECT_DOUBLE_EQ(m.fin, 200.0);
  EXPECT_DOUBLE_EQ(m.admitted, 160.0);
  EXPECT_DOUBLE_EQ(m.fout, 120.0);
  EXPECT_DOUBLE_EQ(m.queue, 40.0);
  // Eq. 11 against the aggregate's effective headroom N*H = 2.
  EXPECT_NEAR(m.y_hat, 41.0 * kNominalCost / 2.0, 1e-12);
  ASSERT_TRUE(m.has_y_measured);
  EXPECT_DOUBLE_EQ(m.y_measured, 3.0);

  // The per-shard decomposition feeds the actuation fan-out.
  EXPECT_DOUBLE_EQ(mon.shard_fin()[0], 0.0);
  EXPECT_DOUBLE_EQ(mon.shard_fin()[1], 200.0);
  EXPECT_DOUBLE_EQ(mon.shard_queues()[0], 0.0);
  EXPECT_DOUBLE_EQ(mon.shard_queues()[1], 40.0);
}

TEST(RtMonitorShardedTest, AggregateMatchesEquivalentSinglePlant) {
  // Summing the shard counters into one RtSample and feeding a 1-shard
  // monitor with headroom N*H must reproduce the 2-shard measurement —
  // the sharded monitor IS the single-plant abstraction.
  RtMonitorOptions per_worker = Opts();
  per_worker.headroom = 0.8;
  RtMonitor sharded(kNominalCost, 2, per_worker);

  RtMonitorOptions agg = Opts();
  agg.headroom = 1.0;  // RtMonitor checks per-worker H <= 1; emulate 2*0.8
  RtMonitor reference(kNominalCost, 1, agg);

  RtSample a;
  a.now = 1.0;
  a.offered = 150;
  a.admitted = 120;
  a.drained_base_load = 90 * kNominalCost;
  a.busy_seconds = 110 * kNominalCost;
  a.queued_tuples = 30;
  a.outstanding_base_load = 30 * kNominalCost;

  RtSample b;
  b.now = 1.0;
  b.offered = 50;
  b.admitted = 40;
  b.drained_base_load = 30 * kNominalCost;
  b.busy_seconds = 35 * kNominalCost;
  b.queued_tuples = 10;
  b.outstanding_base_load = 10 * kNominalCost;

  RtSample sum;
  sum.now = 1.0;
  sum.offered = a.offered + b.offered;
  sum.admitted = a.admitted + b.admitted;
  sum.drained_base_load = a.drained_base_load + b.drained_base_load;
  sum.busy_seconds = a.busy_seconds + b.busy_seconds;
  sum.queued_tuples = a.queued_tuples + b.queued_tuples;
  sum.outstanding_base_load =
      a.outstanding_base_load + b.outstanding_base_load;

  PeriodMeasurement ms = sharded.Sample({a, b}, 2.0);
  PeriodMeasurement mr = reference.Sample({sum}, 2.0);
  EXPECT_DOUBLE_EQ(ms.fin, mr.fin);
  EXPECT_DOUBLE_EQ(ms.fout, mr.fout);
  EXPECT_DOUBLE_EQ(ms.queue, mr.queue);
  // Drain-weighted cost is identical; only the headroom divisor differs
  // (2 * 0.8 vs 1.0), so y_hat scales by exactly 1.0 / 1.6.
  EXPECT_DOUBLE_EQ(ms.cost, mr.cost);
  EXPECT_NEAR(ms.y_hat, mr.y_hat / 1.6, 1e-12);
}

TEST(RtMonitorShardedTest, PerShardQueueClampIsAppliedBeforeSumming) {
  // An empty shard's bookkeeping residue must not leak into the aggregate
  // queue, even when another shard is backlogged.
  RtMonitor mon(kNominalCost, 2, Opts());

  RtSample empty;
  empty.now = 1.0;
  empty.queued_tuples = 0;
  empty.outstanding_base_load = 1e-16;  // residue

  RtSample backlogged;
  backlogged.now = 1.0;
  backlogged.queued_tuples = 10;
  backlogged.outstanding_base_load = 10 * kNominalCost;

  PeriodMeasurement m = mon.Sample({empty, backlogged}, 2.0);
  EXPECT_DOUBLE_EQ(m.queue, 10.0);
}

TEST(RtMonitorShardedDeathTest, RejectsWrongShardCount) {
  RtMonitor mon(kNominalCost, 2, Opts());
  RtSample s;
  s.now = 1.0;
  EXPECT_DEATH(mon.Sample(std::vector<RtSample>{s}, 2.0),
               "one snapshot per shard");
}

TEST(RtMonitorShardedDeathTest, RejectsMismatchedSnapshotTimes) {
  RtMonitor mon(kNominalCost, 2, Opts());
  RtSample a;
  a.now = 1.0;
  RtSample b;
  b.now = 1.5;
  EXPECT_DEATH(mon.Sample({a, b}, 2.0), "one sample time");
}

}  // namespace
}  // namespace ctrlshed
