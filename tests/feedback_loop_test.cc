#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "control/ctrl_controller.h"
#include "core/feedback_loop.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "runner/networks.h"
#include "shedding/entry_shedder.h"
#include "sim/simulation.h"
#include "telemetry/flight_recorder.h"
#include "workload/arrival_source.h"
#include "workload/traces.h"

namespace ctrlshed {
namespace {

// A hand-assembled closed loop on the standard identification plant.
struct Rig {
  Rig(double capacity, double headroom, FeedbackLoopOptions opts)
      : engine_headroom(headroom) {
    BuildIdentificationNetwork(&net, headroom / capacity);
    engine = std::make_unique<Engine>(&net, headroom);
    sim.AttachProcess(engine.get());
    CtrlOptions ctrl_opts;
    ctrl_opts.headroom = headroom;
    controller = std::make_unique<CtrlController>(ctrl_opts);
    shedder = std::make_unique<EntryShedder>(5);
    loop = std::make_unique<FeedbackLoop>(&sim, engine.get(), controller.get(),
                                          shedder.get(), opts);
  }

  void Feed(RateTrace trace, SimTime end) {
    ArrivalSource src(0, std::move(trace), ArrivalSource::Spacing::kPoisson, 9);
    loop->Start();
    src.Start(&sim, [this](const Tuple& t) { loop->OnArrival(t); });
    sim.Run(end);
  }

  double engine_headroom;
  Simulation sim;
  QueryNetwork net;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<CtrlController> controller;
  std::unique_ptr<EntryShedder> shedder;
  std::unique_ptr<FeedbackLoop> loop;
};

TEST(FeedbackLoopTest, ConstantOverloadConvergesToTarget) {
  FeedbackLoopOptions opts;
  opts.target_delay = 2.0;
  Rig rig(190.0, 0.97, opts);
  rig.Feed(MakeConstantTrace(120.0, 300.0), 120.0);

  // Average measured delay over the last 60 periods must hug the target.
  double sum = 0.0;
  int n = 0;
  for (const auto& row : rig.loop->recorder().rows()) {
    if (row.m.t > 60.0 && row.m.has_y_measured) {
      sum += row.m.y_measured;
      ++n;
    }
  }
  ASSERT_GT(n, 40);
  EXPECT_NEAR(sum / n, 2.0, 0.25);
}

TEST(FeedbackLoopTest, UnderloadNeverSheds) {
  FeedbackLoopOptions opts;
  Rig rig(190.0, 0.97, opts);
  rig.Feed(MakeConstantTrace(60.0, 100.0), 60.0);
  EXPECT_EQ(rig.loop->entry_shed(), 0u);
  EXPECT_DOUBLE_EQ(rig.loop->LossRatio(), 0.0);
  // Delays stay at the no-queue service time, far below target.
  EXPECT_LT(rig.loop->qos().max_overshoot(), 0.01);
}

TEST(FeedbackLoopTest, OverloadLossMatchesTheory) {
  FeedbackLoopOptions opts;
  Rig rig(190.0, 0.97, opts);
  rig.Feed(MakeConstantTrace(200.0, 400.0), 200.0);
  // Sustainable rate is 190: loss ~ 1 - 190/400 = 0.525.
  EXPECT_NEAR(rig.loop->LossRatio(), 0.525, 0.03);
}

TEST(FeedbackLoopTest, TupleConservation) {
  FeedbackLoopOptions opts;
  Rig rig(190.0, 0.97, opts);
  rig.Feed(MakeConstantTrace(90.0, 300.0), 90.0);
  const EngineCounters& c = rig.engine->counters();
  EXPECT_EQ(rig.loop->offered(),
            rig.loop->entry_shed() + c.admitted);
  EXPECT_EQ(c.admitted,
            c.departed + c.shed_lineages + rig.engine->QueuedTuples());
}

TEST(FeedbackLoopTest, SetTargetDelayMovesSteadyState) {
  FeedbackLoopOptions opts;
  opts.target_delay = 1.0;
  Rig rig(190.0, 0.97, opts);
  rig.sim.Schedule(60.0, [&] { rig.loop->SetTargetDelay(3.0); });
  rig.Feed(MakeConstantTrace(120.0, 300.0), 120.0);

  double before = 0.0, after = 0.0;
  int nb = 0, na = 0;
  for (const auto& row : rig.loop->recorder().rows()) {
    if (!row.m.has_y_measured) continue;
    if (row.m.t > 30.0 && row.m.t < 60.0) {
      before += row.m.y_measured;
      ++nb;
    } else if (row.m.t > 90.0) {
      after += row.m.y_measured;
      ++na;
    }
  }
  ASSERT_GT(nb, 10);
  ASSERT_GT(na, 10);
  EXPECT_NEAR(before / nb, 1.0, 0.2);
  EXPECT_NEAR(after / na, 3.0, 0.4);
}

TEST(FeedbackLoopTest, RecorderCoversEveryPeriod) {
  FeedbackLoopOptions opts;
  opts.period = 0.5;
  Rig rig(190.0, 0.97, opts);
  rig.Feed(MakeConstantTrace(20.0, 150.0), 20.0);
  EXPECT_EQ(rig.loop->recorder().rows().size(), 40u);
  EXPECT_DOUBLE_EQ(rig.loop->recorder().rows()[0].m.t, 0.5);
}

TEST(FeedbackLoopTest, OfferedRateDividesByExactPeriod) {
  // At T = 0.1 the boundaries k*T are built by repeated addition, so
  // now - prev drifts off 0.1 in the last bits; the sim's rates still
  // divide each period's integer offered count by exactly T.
  FeedbackLoopOptions opts;
  opts.period = 0.1;
  Rig rig(190.0, 0.97, opts);
  std::vector<SimTime> arrivals;
  ArrivalSource src(0, MakeConstantTrace(5.0, 300.0),
                    ArrivalSource::Spacing::kPoisson, 9);
  rig.loop->Start();
  src.Start(&rig.sim, [&](const Tuple& t) {
    arrivals.push_back(t.arrival_time);
    rig.loop->OnArrival(t);
  });
  rig.sim.Run(5.0);

  const auto& rows = rig.loop->recorder().rows();
  ASSERT_GE(rows.size(), 45u);
  size_t next = 0;
  for (const PeriodRecord& row : rows) {
    uint64_t offered = 0;
    while (next < arrivals.size() && arrivals[next] <= row.m.t) {
      ++offered;
      ++next;
    }
    EXPECT_EQ(row.m.fin, static_cast<double>(offered) / 0.1)
        << "k=" << row.m.k;
  }
}

TEST(FeedbackLoopTest, DepartureObserverSeesAllDepartures) {
  FeedbackLoopOptions opts;
  Rig rig(190.0, 0.97, opts);
  uint64_t observed = 0;
  rig.loop->SetDepartureObserver([&](const Departure&) { ++observed; });
  rig.Feed(MakeConstantTrace(30.0, 100.0), 30.0);
  EXPECT_EQ(observed, rig.loop->qos().departures());
  EXPECT_GT(observed, 0u);
}

TEST(FeedbackLoopTest, UncontrolledLoopStillMonitors) {
  Simulation sim;
  QueryNetwork net;
  BuildIdentificationNetwork(&net, 0.005);
  Engine engine(&net, 0.97);
  sim.AttachProcess(&engine);
  FeedbackLoop loop(&sim, &engine, nullptr, nullptr, FeedbackLoopOptions{});
  loop.Start();
  ArrivalSource src(0, MakeConstantTrace(20.0, 100.0),
                    ArrivalSource::Spacing::kDeterministic, 3);
  src.Start(&sim, [&](const Tuple& t) { loop.OnArrival(t); });
  sim.Run(20.0);
  EXPECT_EQ(loop.entry_shed(), 0u);
  EXPECT_EQ(loop.recorder().rows().size(), 20u);
  EXPECT_GT(loop.offered(), 1900u);
}

TEST(FeedbackLoopTest, SummaryIsConsistent) {
  FeedbackLoopOptions opts;
  Rig rig(190.0, 0.97, opts);
  rig.Feed(MakeConstantTrace(60.0, 260.0), 60.0);
  QosSummary s = rig.loop->Summary();
  EXPECT_EQ(s.offered, rig.loop->offered());
  EXPECT_EQ(s.shed, rig.loop->entry_shed() +
                        rig.engine->counters().shed_lineages);
  EXPECT_NEAR(s.loss_ratio,
              static_cast<double>(s.shed) / static_cast<double>(s.offered),
              1e-12);
  EXPECT_EQ(s.departures, rig.loop->qos().departures());
}

// A death test's CS_CHECK writes a flight dump; keep it out of the
// working directory.
class FeedbackLoopDeathTest : public ::testing::Test {
 protected:
  FeedbackLoopDeathTest() {
    SetFlightDumpPath(::testing::TempDir() + "ctrlshed.flightdump.json");
  }
};

TEST_F(FeedbackLoopDeathTest, StartTwiceAborts) {
  Simulation sim;
  QueryNetwork net;
  BuildIdentificationNetwork(&net, 0.005);
  Engine engine(&net, 0.97);
  FeedbackLoop loop(&sim, &engine, nullptr, nullptr, FeedbackLoopOptions{});
  loop.Start();
  EXPECT_DEATH(loop.Start(), "twice");
}

TEST_F(FeedbackLoopDeathTest, ControllerWithoutShedderAborts) {
  Simulation sim;
  QueryNetwork net;
  BuildIdentificationNetwork(&net, 0.005);
  Engine engine(&net, 0.97);
  CtrlController ctrl{CtrlOptions{}};
  EXPECT_DEATH(
      FeedbackLoop(&sim, &engine, &ctrl, nullptr, FeedbackLoopOptions{}),
      "shedder");
}

}  // namespace
}  // namespace ctrlshed
