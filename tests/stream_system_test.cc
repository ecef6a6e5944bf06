#include <gtest/gtest.h>

#include "core/stream_system.h"
#include "telemetry/flight_recorder.h"
#include "workload/traces.h"

namespace ctrlshed {
namespace {

TEST(StreamSystemTest, SingleStreamPipelineRuns) {
  StreamSystem sys;
  sys.AddStream("sensor").Filter(1.0, 0.9).Map(2.0).Map(1.0);
  sys.SetWorkload(0, MakeConstantTrace(30.0, 100.0));
  sys.Run(30.0);
  QosSummary s = sys.Summary();
  EXPECT_GT(s.offered, 2500u);
  EXPECT_GT(s.departures, 0u);
  EXPECT_NEAR(sys.NominalCost(), Millis(1.0 + 0.9 * 3.0), 1e-12);
}

TEST(StreamSystemTest, ControlledOverloadTracksTarget) {
  StreamSystem::Options opts;
  opts.target_delay = 1.0;
  StreamSystem sys(opts);
  // ~4 ms per tuple => capacity ~242/s; offer 400/s.
  sys.AddStream("s").Map(4.0);
  sys.SetWorkload(0, MakeConstantTrace(120.0, 400.0));
  sys.Run(120.0);

  double sum = 0.0;
  int n = 0;
  for (const PeriodRecord& row : sys.recorder().rows()) {
    if (row.m.t > 60.0 && row.m.has_y_measured) {
      sum += row.m.y_measured;
      ++n;
    }
  }
  ASSERT_GT(n, 30);
  EXPECT_NEAR(sum / n, 1.0, 0.2);
  EXPECT_GT(sys.LossRatio(), 0.2);
}

TEST(StreamSystemTest, PolicyNoneNeverSheds) {
  StreamSystem::Options opts;
  opts.policy = StreamSystem::Policy::kNone;
  StreamSystem sys(opts);
  sys.AddStream("s").Map(3.0);
  sys.SetWorkload(0, MakeConstantTrace(20.0, 500.0));
  sys.Run(20.0);
  EXPECT_DOUBLE_EQ(sys.LossRatio(), 0.0);
}

TEST(StreamSystemTest, JoinedPipelines) {
  StreamSystem sys;
  auto& left = sys.AddStream("left").Filter(0.5, 0.9);
  auto& right = sys.AddStream("right").Filter(0.5, 0.9);
  left.JoinWith(right, 1.0, /*window_seconds=*/0.5, /*band=*/0.05,
                /*expected_selectivity=*/1.0)
      .Map(0.5);
  sys.SetWorkload(0, MakeConstantTrace(20.0, 50.0));
  sys.SetWorkload(1, MakeConstantTrace(20.0, 50.0));
  sys.Run(20.0);
  QosSummary s = sys.Summary();
  EXPECT_GT(s.offered, 1800u);
  EXPECT_GT(s.departures, 0u);
}

TEST(StreamSystemTest, ScheduledTargetChangeTakesEffect) {
  StreamSystem::Options opts;
  opts.target_delay = 0.5;
  StreamSystem sys(opts);
  sys.AddStream("s").Map(4.0);
  sys.SetWorkload(0, MakeConstantTrace(120.0, 400.0));
  sys.ScheduleTargetDelay(60.0, 2.0);
  sys.Run(120.0);

  double late = 0.0;
  int n = 0;
  for (const PeriodRecord& row : sys.recorder().rows()) {
    if (row.m.t > 100.0 && row.m.has_y_measured) {
      late += row.m.y_measured;
      ++n;
    }
  }
  ASSERT_GT(n, 5);
  EXPECT_NEAR(late / n, 2.0, 0.4);
}

TEST(StreamSystemTest, IncrementalRunContinues) {
  StreamSystem sys;
  sys.AddStream("s").Map(3.0);
  sys.SetWorkload(0, MakeConstantTrace(40.0, 100.0));
  sys.Run(10.0);
  const uint64_t early = sys.Summary().offered;
  sys.Run(40.0);
  EXPECT_GT(sys.Summary().offered, early);
}

TEST(StreamSystemTest, SemanticActuatorDropsLowUtility) {
  StreamSystem::Options opts;
  opts.actuator = StreamSystem::Actuator::kSemantic;
  opts.target_delay = 0.5;
  StreamSystem sys(opts);
  sys.AddStream("s").Map(4.0);  // capacity ~242; offer 400
  sys.SetWorkload(0, MakeConstantTrace(60.0, 400.0));
  sys.Run(60.0);
  EXPECT_GT(sys.LossRatio(), 0.2);
  // Delay control must be as tight as with random drops.
  double sum = 0.0;
  int n = 0;
  for (const PeriodRecord& row : sys.recorder().rows()) {
    if (row.m.t > 30.0 && row.m.has_y_measured) {
      sum += row.m.y_measured;
      ++n;
    }
  }
  EXPECT_NEAR(sum / n, 0.5, 0.15);
}

TEST(StreamSystemTest, QueueActuatorLabelsItsInNetworkPeriods) {
  // Cutting the setpoint under 2x overload makes the controller drain
  // queued work; every period that removed lineages from operator queues
  // must say so instead of reading entry.
  StreamSystem::Options opts;
  opts.actuator = StreamSystem::Actuator::kQueue;
  opts.target_delay = 4.0;
  StreamSystem sys(opts);
  sys.AddStream("s").Map(4.0);  // capacity ~242; offer ~2x
  sys.SetWorkload(0, MakeConstantTrace(60.0, 480.0));
  sys.ScheduleTargetDelay(30.0, 0.5);
  sys.Run(60.0);
  int queue_rows = 0;
  for (const PeriodRecord& row : sys.recorder().rows()) {
    if (row.queue_shed <= 0.0) continue;
    ++queue_rows;
    EXPECT_NE(row.site, ActuationSite::kEntry) << "period " << row.m.k;
  }
  EXPECT_GT(queue_rows, 0);
}

TEST(StreamSystemTest, AuroraPolicyRuns) {
  StreamSystem::Options opts;
  opts.policy = StreamSystem::Policy::kAurora;
  StreamSystem sys(opts);
  sys.AddStream("s").Map(4.0);
  sys.SetWorkload(0, MakeConstantTrace(30.0, 400.0));
  sys.Run(30.0);
  EXPECT_GT(sys.LossRatio(), 0.1);
}

// A death test's CS_CHECK writes a flight dump; keep it out of the
// working directory.
class StreamSystemDeathTest : public ::testing::Test {
 protected:
  StreamSystemDeathTest() {
    SetFlightDumpPath(::testing::TempDir() + "ctrlshed.flightdump.json");
  }
};

TEST_F(StreamSystemDeathTest, EmptyPipelineAborts) {
  StreamSystem sys;
  sys.AddStream("empty");
  EXPECT_DEATH(sys.Run(1.0), "empty pipeline");
}

TEST_F(StreamSystemDeathTest, NoStreamsAborts) {
  StreamSystem sys;
  EXPECT_DEATH(sys.Run(1.0), "no streams");
}

TEST_F(StreamSystemDeathTest, WorkloadForUnknownStreamAborts) {
  StreamSystem sys;
  sys.AddStream("s").Map(1.0);
  EXPECT_DEATH(sys.SetWorkload(3, MakeConstantTrace(1.0, 1.0)),
               "unknown stream");
}

TEST_F(StreamSystemDeathTest, TopologyFrozenAfterRun) {
  StreamSystem sys;
  sys.AddStream("s").Map(1.0);
  sys.SetWorkload(0, MakeConstantTrace(5.0, 10.0));
  sys.Run(1.0);
  EXPECT_DEATH(sys.AddStream("late"), "frozen");
}

TEST_F(StreamSystemDeathTest, SummaryBeforeRunAborts) {
  StreamSystem sys;
  sys.AddStream("s").Map(1.0);
  EXPECT_DEATH(sys.Summary(), "Run first");
}


TEST(StreamSystemTest, WeightedActuatorProtectsHighPriority) {
  StreamSystem::Options opts;
  opts.actuator = StreamSystem::Actuator::kWeighted;
  opts.stream_priorities = {10.0, 1.0};
  opts.track_per_stream = true;
  opts.target_delay = 1.0;
  StreamSystem sys(opts);
  sys.AddStream("vip").Map(4.0);
  sys.AddStream("bulk").Map(4.0);
  // 200 + 200 offered vs ~242/s capacity: ~40% must go.
  sys.SetWorkload(0, MakeConstantTrace(90.0, 200.0));
  sys.SetWorkload(1, MakeConstantTrace(90.0, 200.0));
  sys.Run(90.0);
  ASSERT_NE(sys.per_stream(), nullptr);
  EXPECT_LT(sys.per_stream()->LossRatio(0), 0.05);
  EXPECT_GT(sys.per_stream()->LossRatio(1), 0.5);
}

TEST(StreamSystemTest, PerStreamTrackingOffByDefault) {
  StreamSystem sys;
  sys.AddStream("s").Map(1.0);
  sys.SetWorkload(0, MakeConstantTrace(5.0, 10.0));
  sys.Run(5.0);
  EXPECT_EQ(sys.per_stream(), nullptr);
}

TEST_F(StreamSystemDeathTest, WeightedActuatorNeedsMatchingPriorities) {
  StreamSystem::Options opts;
  opts.actuator = StreamSystem::Actuator::kWeighted;
  opts.stream_priorities = {1.0};  // but two streams
  StreamSystem sys(opts);
  sys.AddStream("a").Map(1.0);
  sys.AddStream("b").Map(1.0);
  EXPECT_DEATH(sys.Run(1.0), "stream_priorities");
}

}  // namespace
}  // namespace ctrlshed
