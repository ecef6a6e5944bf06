// The sim's monitor: a one-shard RtMonitor sampling a real Engine through
// EngineSample, the fill FeedbackLoop uses each period.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/feedback_loop.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "rt/rt_monitor.h"
#include "runner/networks.h"

namespace ctrlshed {
namespace {

Tuple SourceTuple(double value, SimTime arrival) {
  Tuple t;
  t.arrival_time = arrival;
  t.value = value;
  return t;
}

RtMonitorOptions Opts(double headroom, double cost_ewma, double noise,
                      uint64_t seed) {
  RtMonitorOptions o;
  o.period = 1.0;
  o.headroom = headroom;
  o.cost_ewma = cost_ewma;
  o.estimation_noise = noise;
  o.noise_seed = seed;
  return o;
}

/// A one-shard RtMonitor over a sim Engine, sampled the way FeedbackLoop
/// samples it.
struct EngineMonitor {
  EngineMonitor(Engine* e, RtMonitorOptions o)
      : engine(e), mon(e->NominalEntryCost(), 1, o) {}

  void OnDeparture(const Departure& d) {
    delay_sum += d.depart_time - d.arrival_time;
    ++delay_count;
  }

  PeriodMeasurement Sample(SimTime now, uint64_t offered_cum,
                           double target_delay) {
    return mon.Sample(
        {EngineSample(*engine, now, offered_cum, delay_sum, delay_count)},
        target_delay);
  }

  Engine* engine;
  RtMonitor mon;
  double delay_sum = 0.0;
  uint64_t delay_count = 0;
};

class MonitorFixture : public ::testing::Test {
 protected:
  MonitorFixture() {
    BuildUniformChain(&net_, 5, 0.010);
    engine_ = std::make_unique<Engine>(&net_, 1.0);
  }
  QueryNetwork net_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(MonitorFixture, MeasuresRatesFromCounterDeltas) {
  EngineMonitor mon(engine_.get(), Opts(1.0, 1.0, 0.0, 1));
  // Period 1: 30 offered, 20 admitted (10 "shed" upstream of the engine).
  for (int i = 0; i < 20; ++i) engine_->Inject(SourceTuple(0.5, 0.0), 0.0);
  engine_->AdvanceTo(1.0);  // 0.2 s of work: everything drains
  PeriodMeasurement m = mon.Sample(1.0, /*offered_cum=*/30, 2.0);
  EXPECT_EQ(m.k, 1);
  EXPECT_DOUBLE_EQ(m.fin, 30.0);
  EXPECT_DOUBLE_EQ(m.admitted, 20.0);
  EXPECT_NEAR(m.fout, 20.0, 1e-9);
  EXPECT_NEAR(m.queue, 0.0, 1e-9);

  // Period 2: nothing.
  PeriodMeasurement m2 = mon.Sample(2.0, 30, 2.0);
  EXPECT_DOUBLE_EQ(m2.fin, 0.0);
  EXPECT_DOUBLE_EQ(m2.admitted, 0.0);
  EXPECT_EQ(m2.k, 2);
}

TEST_F(MonitorFixture, CostEstimateMatchesNominalOnCleanRun) {
  EngineMonitor mon(engine_.get(), Opts(1.0, 1.0, 0.0, 1));
  for (int i = 0; i < 50; ++i) engine_->Inject(SourceTuple(0.5, 0.0), 0.0);
  engine_->AdvanceTo(1.0);
  PeriodMeasurement m = mon.Sample(1.0, 50, 2.0);
  EXPECT_NEAR(m.cost, 0.010, 1e-9);
}

TEST_F(MonitorFixture, CostEstimateTracksMultiplier) {
  engine_->SetCostMultiplier([](SimTime) { return 2.5; });
  EngineMonitor mon(engine_.get(), Opts(1.0, 1.0, 0.0, 1));
  for (int i = 0; i < 30; ++i) engine_->Inject(SourceTuple(0.5, 0.0), 0.0);
  engine_->AdvanceTo(1.0);
  PeriodMeasurement m = mon.Sample(1.0, 30, 2.0);
  EXPECT_NEAR(m.cost, 0.025, 1e-9);
}

TEST_F(MonitorFixture, YHatFollowsEq11) {
  EngineMonitor mon(engine_.get(), Opts(/*headroom=*/0.97, 1.0, 0.0, 1));
  for (int i = 0; i < 40; ++i) engine_->Inject(SourceTuple(0.5, 0.0), 0.0);
  // Process only some of the work.
  engine_->AdvanceTo(0.1);
  PeriodMeasurement m = mon.Sample(1.0, 40, 2.0);
  EXPECT_NEAR(m.y_hat, (m.queue + 1.0) * m.cost / 0.97, 1e-9);
  EXPECT_GT(m.queue, 0.0);
}

TEST_F(MonitorFixture, MeasuredDelayAveragesDepartures) {
  EngineMonitor mon(engine_.get(), Opts(1.0, 1.0, 0.0, 1));
  engine_->SetDepartureCallback([&](const Departure& d) { mon.OnDeparture(d); });
  engine_->Inject(SourceTuple(0.5, 0.0), 0.0);
  engine_->AdvanceTo(1.0);
  PeriodMeasurement m = mon.Sample(1.0, 1, 2.0);
  ASSERT_TRUE(m.has_y_measured);
  EXPECT_NEAR(m.y_measured, 0.010, 1e-9);

  PeriodMeasurement m2 = mon.Sample(2.0, 1, 2.0);
  EXPECT_FALSE(m2.has_y_measured);
}

TEST_F(MonitorFixture, CostEstimateHoldsWhenIdle) {
  EngineMonitor mon(engine_.get(), Opts(1.0, 1.0, 0.0, 1));
  PeriodMeasurement m = mon.Sample(1.0, 0, 2.0);
  // Falls back to the static (nominal) estimate.
  EXPECT_NEAR(m.cost, 0.010, 1e-9);
}

TEST_F(MonitorFixture, EwmaSmoothsCostJumps) {
  EngineMonitor raw(engine_.get(), Opts(1.0, /*ewma=*/1.0, 0.0, 1));
  QueryNetwork net2;
  BuildUniformChain(&net2, 5, 0.010);
  Engine engine2(&net2, 1.0);
  EngineMonitor smooth(&engine2, Opts(1.0, /*ewma=*/0.3, 0.0, 1));

  auto mult = [](SimTime) { return 4.0; };
  engine_->SetCostMultiplier(mult);
  engine2.SetCostMultiplier(mult);
  for (int i = 0; i < 20; ++i) {
    engine_->Inject(SourceTuple(0.5, 0.0), 0.0);
    engine2.Inject(SourceTuple(0.5, 0.0), 0.0);
  }
  engine_->AdvanceTo(1.0);
  engine2.AdvanceTo(1.0);
  double c_raw = raw.Sample(1.0, 20, 2.0).cost;
  double c_smooth = smooth.Sample(1.0, 20, 2.0).cost;
  EXPECT_NEAR(c_raw, 0.040, 1e-9);
  EXPECT_NEAR(c_smooth, 0.3 * 0.040 + 0.7 * 0.010, 1e-9);
}

TEST_F(MonitorFixture, EstimationNoiseIsReproducible) {
  QueryNetwork net2;
  BuildUniformChain(&net2, 5, 0.010);
  Engine engine2(&net2, 1.0);
  EngineMonitor a(engine_.get(), Opts(1.0, 1.0, /*noise=*/0.1, 7));
  EngineMonitor b(&engine2, Opts(1.0, 1.0, /*noise=*/0.1, 7));
  for (int i = 0; i < 20; ++i) {
    engine_->Inject(SourceTuple(0.5, 0.0), 0.0);
    engine2.Inject(SourceTuple(0.5, 0.0), 0.0);
  }
  engine_->AdvanceTo(1.0);
  engine2.AdvanceTo(1.0);
  EXPECT_DOUBLE_EQ(a.Sample(1.0, 20, 2.0).cost, b.Sample(1.0, 20, 2.0).cost);
}

TEST_F(MonitorFixture, EstimationNoisePerturbsCost) {
  EngineMonitor mon(engine_.get(), Opts(1.0, 1.0, /*noise=*/0.2, 7));
  for (int i = 0; i < 20; ++i) engine_->Inject(SourceTuple(0.5, 0.0), 0.0);
  engine_->AdvanceTo(1.0);
  double c = mon.Sample(1.0, 20, 2.0).cost;
  EXPECT_NE(c, 0.010);
  EXPECT_GT(c, 0.005);
  EXPECT_LT(c, 0.020);
}

TEST_F(MonitorFixture, TargetDelayStamped) {
  EngineMonitor mon(engine_.get(), Opts(1.0, 1.0, 0.0, 1));
  EXPECT_DOUBLE_EQ(mon.Sample(1.0, 0, 3.5).target_delay, 3.5);
}

TEST(MonitorDeathTest, OfferedCounterMustBeMonotone) {
  QueryNetwork net;
  BuildUniformChain(&net, 3, 0.003);
  Engine engine(&net, 1.0);
  EngineMonitor mon(&engine, Opts(1.0, 1.0, 0.0, 1));
  mon.Sample(1.0, 10, 2.0);
  EXPECT_DEATH(mon.Sample(2.0, 5, 2.0), "backwards");
}

}  // namespace
}  // namespace ctrlshed
