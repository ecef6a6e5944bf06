// Unit tests of the shared per-period measurement math (Eq. 11 delay
// estimate, cost EWMA, online headroom adaptation) that RtMonitor and
// ClusterMonitor reach through SliceFold. Every case fabricates one
// period's counter deltas and checks the derived signals.

#include "control/period_math.h"

#include <gtest/gtest.h>

#include "rt/rt_monitor.h"

namespace ctrlshed {
namespace {

constexpr double kNominalCost = 0.005;  // 5 ms per entry tuple

PeriodMathOptions Opts() {
  PeriodMathOptions o;
  o.period = 1.0;
  o.headroom = 1.0;
  return o;
}

TEST(PeriodMathTest, FirstSampleRatesAndEq11) {
  PeriodMath math(kNominalCost, Opts());

  PeriodDeltas d;
  d.now = 1.0;
  d.offered = 100;
  d.admitted = 80;
  d.drained_base_load = 60 * kNominalCost;
  d.busy_seconds = 60 * kNominalCost;
  d.queue = 20.0;

  PeriodMeasurement m = math.SampleDeltas(d, 2.0, /*elapsed=*/1.0);
  EXPECT_EQ(m.k, 1);
  EXPECT_DOUBLE_EQ(m.t, 1.0);
  EXPECT_DOUBLE_EQ(m.period, 1.0);
  EXPECT_DOUBLE_EQ(m.fin, 100.0);
  EXPECT_DOUBLE_EQ(m.fin_forecast, 100.0);
  EXPECT_DOUBLE_EQ(m.admitted, 80.0);
  EXPECT_DOUBLE_EQ(m.fout, 60.0);
  EXPECT_DOUBLE_EQ(m.queue, 20.0);
  // Measured cost == nominal here, so y_hat = (q+1) c / H.
  EXPECT_NEAR(m.y_hat, 21.0 * kNominalCost, 1e-12);
  EXPECT_FALSE(m.has_y_measured);
  EXPECT_DOUBLE_EQ(m.target_delay, 2.0);
}

TEST(PeriodMathTest, RatesDivideByElapsedNotNominalPeriod) {
  PeriodMath math(kNominalCost, Opts());

  PeriodDeltas d1;
  d1.now = 1.0;
  d1.offered = 100;
  math.SampleDeltas(d1, 2.0, 1.0);

  // An oversleeping rt controller: the "1-second" period spans 2 s.
  PeriodDeltas d2;
  d2.now = 3.0;
  d2.offered = 300;  // over 2 s -> 150/s
  d2.admitted = 200;
  d2.drained_base_load = 100 * kNominalCost;
  d2.busy_seconds = 100 * kNominalCost;

  PeriodMeasurement m = math.SampleDeltas(d2, 2.0, /*elapsed=*/2.0);
  EXPECT_EQ(m.k, 2);
  EXPECT_DOUBLE_EQ(m.fin, 150.0);
  EXPECT_DOUBLE_EQ(m.admitted, 100.0);
  EXPECT_DOUBLE_EQ(m.fout, 50.0);
  // The controller still sees the nominal design period.
  EXPECT_DOUBLE_EQ(m.period, 1.0);
}

TEST(PeriodMathTest, CostEwmaAndIdlePeriodKeepsEstimate) {
  PeriodMathOptions o = Opts();
  o.cost_ewma = 0.5;
  PeriodMath math(kNominalCost, o);

  PeriodDeltas d1;
  d1.now = 1.0;
  d1.drained_base_load = 100 * kNominalCost;
  d1.busy_seconds = 2 * 100 * kNominalCost;  // measured cost = 2 * nominal
  PeriodMeasurement m1 = math.SampleDeltas(d1, 2.0, 1.0);
  // EWMA from the nominal bootstrap: 0.5*2c + 0.5*c = 1.5c.
  EXPECT_NEAR(m1.cost, 1.5 * kNominalCost, 1e-12);

  // Nothing drained: the estimate must not be corrupted.
  PeriodDeltas d2;
  d2.now = 2.0;
  PeriodMeasurement m2 = math.SampleDeltas(d2, 2.0, 1.0);
  EXPECT_NEAR(m2.cost, 1.5 * kNominalCost, 1e-12);
  EXPECT_DOUBLE_EQ(m2.fout, 0.0);
}

TEST(PeriodMathTest, CostNoiseAppliedOnlyWhenUpdateFires) {
  PeriodMath math(kNominalCost, Opts());
  int draws = 0;
  const std::function<double()> noise = [&draws] {
    ++draws;
    return 2.0;
  };

  // Idle period: the noise source must NOT be consumed (the sim's noise
  // RNG stream position depends on this).
  PeriodDeltas d1;
  d1.now = 1.0;
  math.SampleDeltas(d1, 2.0, 1.0, noise);
  EXPECT_EQ(draws, 0);

  PeriodDeltas d2;
  d2.now = 2.0;
  d2.drained_base_load = 100 * kNominalCost;
  d2.busy_seconds = 100 * kNominalCost;
  PeriodMeasurement m = math.SampleDeltas(d2, 2.0, 1.0, noise);
  EXPECT_EQ(draws, 1);
  EXPECT_NEAR(m.cost, 2.0 * kNominalCost, 1e-12);
}

TEST(PeriodMathTest, MeasuredDelayUsesSuppliedDeltas) {
  PeriodMath math(kNominalCost, Opts());

  PeriodDeltas d;
  d.now = 1.0;
  d.delay_sum = 10.0;
  d.delay_count = 5;
  PeriodMeasurement m1 = math.SampleDeltas(d, 2.0, 1.0);
  ASSERT_TRUE(m1.has_y_measured);
  EXPECT_DOUBLE_EQ(m1.y_measured, 2.0);

  d.now = 2.0;
  d.delay_sum = 0.0;
  d.delay_count = 0;
  PeriodMeasurement m2 = math.SampleDeltas(d, 2.0, 1.0);
  EXPECT_FALSE(m2.has_y_measured);
}

TEST(PeriodMathTest, AdaptiveHeadroomConvergesUnderSaturation) {
  PeriodMathOptions o = Opts();
  o.headroom = 0.90;  // wrong belief; the "engine" actually gets 0.6
  o.adapt_headroom = true;
  o.headroom_ewma = 0.5;
  PeriodMath math(kNominalCost, o);

  PeriodDeltas d;
  for (int k = 1; k <= 20; ++k) {
    d.now = static_cast<double>(k);
    d.busy_seconds = 0.6;
    d.drained_base_load = 0.6;
    d.queue = 100.0;  // persistently backlogged
    math.SampleDeltas(d, 2.0, 1.0);
  }
  EXPECT_NEAR(math.HeadroomEstimate(), 0.6, 0.01);
}

TEST(PeriodMathTest, AggregateHeadroomAboveOneIsAccepted) {
  // A 4-worker aggregate plant: effective headroom 4*0.97, online estimate
  // clamped at 4 CPUs of work per second.
  PeriodMathOptions o;
  o.headroom = 4 * 0.97;
  o.max_headroom = 4.0;
  o.adapt_headroom = true;
  o.headroom_ewma = 1.0;  // no smoothing: track the measurement exactly
  PeriodMath math(kNominalCost, o);

  PeriodDeltas d;
  d.now = 1.0;
  d.queue = 50.0;
  math.SampleDeltas(d, 2.0, 1.0);

  d.now = 2.0;
  d.busy_seconds = 3.2;  // 3.2 CPU-seconds across 4 workers in 1 s
  d.drained_base_load = 3.2;
  PeriodMeasurement m = math.SampleDeltas(d, 2.0, 1.0);
  EXPECT_NEAR(math.HeadroomEstimate(), 3.2, 1e-12);
  // y_hat uses the online aggregate estimate.
  EXPECT_NEAR(m.y_hat, (m.queue + 1.0) * m.cost / 3.2, 1e-12);
}

TEST(PeriodMathTest, SampleDeltasMatchesCumulativeSampleExactly) {
  // The cluster identity contract: a node ships the deltas its RtMonitor
  // folded, and the controller folds them again. A one-slice fold must
  // equal a bare SampleDeltas on the same deltas — EXPECT_EQ, not NEAR.
  SliceFold fold(kNominalCost, Opts());
  PeriodMath deltas(kNominalCost, Opts());

  for (int k = 1; k <= 6; ++k) {
    const uint64_t d_offered = 90 + static_cast<uint64_t>(7 * k);
    const double d_busy = 0.2 + 0.1 * static_cast<double>(k);
    PeriodDeltas d;
    d.now = static_cast<double>(k);
    d.offered = d_offered;
    d.admitted = d_offered / 2;
    d.busy_seconds = d_busy;
    d.drained_base_load = d_busy * 0.9;
    d.queue = 3.3 * static_cast<double>(k);
    d.delay_sum = 0.7 * static_cast<double>(k);
    d.delay_count = static_cast<uint64_t>(k);

    fold.Begin(d.now);
    fold.Add(d);
    const PeriodMeasurement a = fold.Sample(2.0);
    const PeriodMeasurement b = deltas.SampleDeltas(d, 2.0, 1.0);
    EXPECT_EQ(a.fin, b.fin);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.fout, b.fout);
    EXPECT_EQ(a.queue, b.queue);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.y_hat, b.y_hat);
    EXPECT_EQ(a.y_measured, b.y_measured);
  }
}

TEST(PeriodMathTest, SetHeadroomRetargetsEq11KeepingCostState) {
  PeriodMathOptions o = Opts();
  o.cost_ewma = 0.5;
  PeriodMath math(kNominalCost, o);

  PeriodDeltas d;
  d.now = 1.0;
  d.drained_base_load = 100 * kNominalCost;
  d.busy_seconds = 2 * 100 * kNominalCost;
  d.queue = 10.0;
  const PeriodMeasurement m1 = math.SampleDeltas(d, 2.0, 1.0);

  // Cluster membership doubles the plant: y_hat halves, but the cost EWMA
  // carries over instead of resetting to the nominal bootstrap.
  math.SetHeadroom(2.0, 2.0);
  PeriodDeltas idle;
  idle.now = 2.0;
  idle.queue = d.queue;
  const PeriodMeasurement m2 = math.SampleDeltas(idle, 2.0, 1.0);
  EXPECT_EQ(m2.cost, m1.cost);  // idle period: EWMA untouched
  EXPECT_NEAR(m2.y_hat, (idle.queue + 1.0) * m2.cost / 2.0, 1e-12);
}

TEST(ProportionalSharesTest, WeightsProportionalToLoads) {
  const std::vector<double> shares = ProportionalShares({300.0, 100.0});
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_DOUBLE_EQ(shares[0], 0.75);
  EXPECT_DOUBLE_EQ(shares[1], 0.25);
}

TEST(ProportionalSharesTest, ZeroTotalFallsBackToEvenSplit) {
  const std::vector<double> shares = ProportionalShares({0.0, 0.0, 0.0, 0.0});
  ASSERT_EQ(shares.size(), 4u);
  for (double s : shares) EXPECT_DOUBLE_EQ(s, 0.25);
}

TEST(ProportionalSharesTest, SingleLoadIsExactlyOne) {
  // At one shard/node the fan-out must be the identity: v * 1.0 == v bit
  // for bit, which the cluster identity tests lean on.
  EXPECT_EQ(ProportionalShares({123.4})[0], 1.0);
  EXPECT_EQ(ProportionalShares({0.0})[0], 1.0);
}

TEST(PeriodMathDeathTest, RejectsBackwardsCounters) {
  // Deltas are formed per shard in RtMonitor, which owns the check.
  RtMonitorOptions o;
  o.headroom = 1.0;
  RtMonitor mon(kNominalCost, 1, o);
  RtSample s;
  s.now = 1.0;
  s.offered = 10;
  mon.Sample({s}, 2.0);
  s.now = 2.0;
  s.offered = 5;
  EXPECT_DEATH(mon.Sample({s}, 2.0), "backwards");
}

TEST(PeriodMathDeathTest, RejectsNonPositiveElapsed) {
  PeriodMath math(kNominalCost, Opts());
  PeriodDeltas d;
  d.now = 1.0;
  EXPECT_DEATH(math.SampleDeltas(d, 2.0, 0.0), "elapsed");
}

}  // namespace
}  // namespace ctrlshed
