// Cross-module integration and robustness suite: every (method x workload
// x actuator) combination must uphold the system invariants, and the loop
// must survive hostile inputs (dead air, extreme cost spikes, degenerate
// control periods) without tripping a single CS_CHECK.

#include <gtest/gtest.h>

#include <tuple>
#include <type_traits>

#include "core/feedback_loop.h"
#include "runner/experiment.h"

namespace ctrlshed {
namespace {

struct GridCase {
  Method method;
  WorkloadKind workload;
  // int, not bool: gtest prints a case as its raw bytes and ctest names
  // the test after that print, so a bool here would put three
  // uninitialised padding bytes into the test name.
  int queue_shedder;
};
static_assert(std::has_unique_object_representations_v<GridCase>,
              "GridCase must have no padding: its bytes are its test name");

class FullGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(FullGrid, InvariantsHold) {
  const GridCase& gc = GetParam();
  ExperimentConfig cfg;
  cfg.method = gc.method;
  cfg.workload = gc.workload;
  cfg.use_queue_shedder = gc.queue_shedder != 0;
  cfg.duration = 150.0;
  cfg.vary_cost = true;
  cfg.estimation_noise = 0.1;
  ExperimentResult r = RunExperiment(cfg);
  const QosSummary& s = r.summary;

  EXPECT_GT(s.offered, 0u);
  EXPECT_GE(s.loss_ratio, 0.0);
  EXPECT_LE(s.loss_ratio, 1.0);
  EXPECT_LE(s.shed, s.offered);
  EXPECT_GE(s.max_overshoot, 0.0);
  EXPECT_GE(s.p99_delay, s.p95_delay);
  EXPECT_GE(s.p95_delay, s.p50_delay);
  EXPECT_GE(s.mean_delay, 0.0);
  // One recorder row per control period.
  EXPECT_EQ(r.recorder.rows().size(),
            static_cast<size_t>(cfg.duration / cfg.period));
  // Queue lengths and rates can never be negative.
  for (const PeriodRecord& row : r.recorder.rows()) {
    EXPECT_GE(row.m.queue, 0.0);
    EXPECT_GE(row.m.fin, 0.0);
    EXPECT_GE(row.m.fout, -1e-9);
    EXPECT_GT(row.m.cost, 0.0);
    EXPECT_GE(row.alpha, 0.0);
    EXPECT_LE(row.alpha, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByWorkloads, FullGrid,
    ::testing::Values(
        GridCase{Method::kCtrl, WorkloadKind::kWeb, false},
        GridCase{Method::kCtrl, WorkloadKind::kPareto, false},
        GridCase{Method::kCtrl, WorkloadKind::kWeb, true},
        GridCase{Method::kCtrl, WorkloadKind::kPareto, true},
        GridCase{Method::kBaseline, WorkloadKind::kWeb, false},
        GridCase{Method::kBaseline, WorkloadKind::kPareto, false},
        GridCase{Method::kBaseline, WorkloadKind::kPareto, true},
        GridCase{Method::kAurora, WorkloadKind::kWeb, false},
        GridCase{Method::kAurora, WorkloadKind::kPareto, false},
        GridCase{Method::kNone, WorkloadKind::kWeb, false},
        GridCase{Method::kNone, WorkloadKind::kSine, false},
        GridCase{Method::kCtrl, WorkloadKind::kStep, false},
        GridCase{Method::kCtrl, WorkloadKind::kRamp, false},
        GridCase{Method::kCtrl, WorkloadKind::kMmpp, false},
        GridCase{Method::kPi, WorkloadKind::kPareto, false},
        GridCase{Method::kPi, WorkloadKind::kWeb, true},
        GridCase{Method::kCtrl, WorkloadKind::kConstant, true}));

TEST(RobustnessTest, SurvivesDeadAir) {
  // Rate drops to zero for a long stretch: monitor periods with no
  // arrivals, no departures, an idle engine.
  ExperimentConfig cfg;
  cfg.method = Method::kCtrl;
  cfg.workload = WorkloadKind::kStep;
  cfg.step_low = 250.0;
  cfg.step_high = 0.0;  // everything stops at t=10
  cfg.step_at = 10.0;
  cfg.duration = 60.0;
  ExperimentResult r = RunExperiment(cfg);
  EXPECT_EQ(r.recorder.rows().size(), 60u);
  // Whatever queued at the step must eventually drain.
  EXPECT_NEAR(r.recorder.rows().back().m.queue, 0.0, 1.0);
}

TEST(RobustnessTest, SurvivesExtremeCostSpike) {
  ExperimentConfig cfg;
  cfg.method = Method::kCtrl;
  cfg.workload = WorkloadKind::kConstant;
  cfg.constant_rate = 250.0;
  cfg.duration = 120.0;
  cfg.vary_cost = true;
  cfg.cost_params.jump_ms = 120.0;  // a 30x cost explosion at t=125...
  cfg.cost_params.jump_at = 40.0;   // ...moved into the run
  cfg.cost_params.jump_decay = 15.0;
  cfg.use_queue_shedder = true;
  ExperimentResult r = RunExperiment(cfg);
  EXPECT_GT(r.summary.loss_ratio, 0.3);
  // The loop must pull the delay back near the target by the end.
  double tail = 0.0;
  int n = 0;
  for (const PeriodRecord& row : r.recorder.rows()) {
    if (row.m.t > 100.0 && row.m.has_y_measured) {
      tail += row.m.y_measured;
      ++n;
    }
  }
  ASSERT_GT(n, 5);
  EXPECT_NEAR(tail / n, 2.0, 0.8);
}

TEST(RobustnessTest, SurvivesTinyAndHugeControlPeriods) {
  for (double period : {0.03125, 8.0}) {
    ExperimentConfig cfg;
    cfg.method = Method::kCtrl;
    cfg.workload = WorkloadKind::kPareto;
    cfg.period = period;
    cfg.duration = 80.0;
    ExperimentResult r = RunExperiment(cfg);
    EXPECT_GT(r.summary.offered, 0u);
    EXPECT_LE(r.summary.loss_ratio, 1.0);
  }
}

TEST(RobustnessTest, LongSoakStaysStable) {
  // 2000 simulated seconds of bursty overload with cost variation: the
  // delay must never run away (bounded overshoot) and the queue must not
  // trend upward across the run.
  ExperimentConfig cfg;
  cfg.method = Method::kCtrl;
  cfg.workload = WorkloadKind::kPareto;
  cfg.duration = 2000.0;
  cfg.vary_cost = true;
  cfg.estimation_noise = 0.1;
  ExperimentResult r = RunExperiment(cfg);
  EXPECT_LT(r.summary.max_overshoot, 25.0);
  double first_half = 0.0, second_half = 0.0;
  int n1 = 0, n2 = 0;
  for (const PeriodRecord& row : r.recorder.rows()) {
    if (row.m.t < 1000.0) {
      first_half += row.m.queue;
      ++n1;
    } else {
      second_half += row.m.queue;
      ++n2;
    }
  }
  // No systematic growth: second-half mean queue within 2x of first half.
  EXPECT_LT(second_half / n2, 2.0 * first_half / n1 + 50.0);
}

TEST(RobustnessTest, ZeroSelectivityPathDropsEverythingGracefully) {
  // A pipeline whose filter rejects all tuples still departs them (as
  // kFiltered) and the loop keeps functioning.
  ExperimentConfig cfg;  // unused fields; hand-build the bits we need
  (void)cfg;
  QueryNetwork net;
  auto* f = net.Add(std::make_unique<FilterOp>("reject", 0.001, 0.0));
  auto* m = net.Add(std::make_unique<MapOp>("m", 0.001));
  f->ConnectTo(m);
  net.AddEntry(0, f);
  net.Finalize();
  Engine engine(&net, 1.0);
  int filtered = 0;
  engine.SetDepartureCallback([&](const Departure& d) {
    if (d.kind == DepartureKind::kFiltered) ++filtered;
  });
  for (int i = 0; i < 100; ++i) {
    Tuple t;
    t.value = 0.5;
    engine.Inject(t, 0.0);
  }
  engine.AdvanceTo(10.0);
  EXPECT_EQ(filtered, 100);
  EXPECT_EQ(engine.QueuedTuples(), 0u);
}

TEST(PerSourceIntegrationTest, LoopTracksPerStreamStats) {
  // Hand-assembled two-stream loop with tracking enabled.
  Simulation sim;
  QueryNetwork net;
  auto* a = net.Add(std::make_unique<MapOp>("a", 0.004));
  auto* b = net.Add(std::make_unique<MapOp>("b", 0.004));
  net.AddEntry(0, a);
  net.AddEntry(1, b);
  net.Finalize();
  Engine engine(&net, 0.97);
  sim.AttachProcess(&engine);
  FeedbackLoopOptions opts;
  opts.track_sources = 2;
  FeedbackLoop loop(&sim, &engine, nullptr, nullptr, opts);
  loop.Start();

  for (int i = 0; i < 50; ++i) {
    Tuple t;
    t.source = i % 2;
    t.arrival_time = 0.01 * i;
    sim.Schedule(0.01 * i, [&loop, t]() { loop.OnArrival(t); });
  }
  sim.Run(5.0);
  ASSERT_NE(loop.per_source(), nullptr);
  EXPECT_EQ(loop.per_source()->offered(0), 25u);
  EXPECT_EQ(loop.per_source()->offered(1), 25u);
  EXPECT_EQ(loop.per_source()->departures(0), 25u);
  EXPECT_GT(loop.per_source()->MeanDelay(0), 0.0);
}

}  // namespace
}  // namespace ctrlshed
