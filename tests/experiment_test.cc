#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "runner/experiment.h"

namespace ctrlshed {
namespace {

ExperimentConfig ShortConfig(Method m, WorkloadKind w) {
  ExperimentConfig cfg;
  cfg.method = m;
  cfg.workload = w;
  cfg.duration = 120.0;
  return cfg;
}

TEST(ExperimentTest, DeterministicForSameSeed) {
  ExperimentConfig cfg = ShortConfig(Method::kCtrl, WorkloadKind::kPareto);
  cfg.vary_cost = true;
  ExperimentResult a = RunExperiment(cfg);
  ExperimentResult b = RunExperiment(cfg);
  EXPECT_EQ(a.summary.offered, b.summary.offered);
  EXPECT_EQ(a.summary.shed, b.summary.shed);
  EXPECT_DOUBLE_EQ(a.summary.accumulated_violation,
                   b.summary.accumulated_violation);
  EXPECT_DOUBLE_EQ(a.summary.max_overshoot, b.summary.max_overshoot);
}

TEST(ExperimentTest, DifferentSeedsDiffer) {
  ExperimentConfig cfg = ShortConfig(Method::kCtrl, WorkloadKind::kPareto);
  ExperimentConfig cfg2 = cfg;
  cfg2.seed = 777;
  EXPECT_NE(RunExperiment(cfg).summary.offered,
            RunExperiment(cfg2).summary.offered);
}

TEST(ExperimentTest, NominalCostPinsCapacity) {
  ExperimentConfig cfg = ShortConfig(Method::kNone, WorkloadKind::kConstant);
  cfg.capacity_rate = 190.0;
  cfg.headroom_true = 0.97;
  ExperimentResult r = RunExperiment(cfg);
  EXPECT_NEAR(r.nominal_cost, 0.97 / 190.0, 1e-12);
}

TEST(ExperimentTest, UncontrolledOverloadDiverges) {
  ExperimentConfig cfg = ShortConfig(Method::kNone, WorkloadKind::kConstant);
  cfg.constant_rate = 300.0;
  ExperimentResult r = RunExperiment(cfg);
  EXPECT_DOUBLE_EQ(r.summary.loss_ratio, 0.0);
  // The virtual queue grows roughly linearly: (300-190) tuples/s.
  const auto& rows = r.recorder.rows();
  EXPECT_GT(rows.back().m.queue, 0.7 * 110.0 * cfg.duration);
}

TEST(ExperimentTest, CtrlKeepsDelaysNearTargetUnderOverload) {
  ExperimentConfig cfg = ShortConfig(Method::kCtrl, WorkloadKind::kConstant);
  cfg.constant_rate = 300.0;
  ExperimentResult r = RunExperiment(cfg);
  EXPECT_LT(r.summary.max_overshoot, 1.0);
  EXPECT_GT(r.summary.loss_ratio, 0.2);
}

TEST(ExperimentTest, AuroraWorseThanCtrlOnBurstyInput) {
  ExperimentConfig ctrl = ShortConfig(Method::kCtrl, WorkloadKind::kPareto);
  ExperimentConfig aurora = ShortConfig(Method::kAurora, WorkloadKind::kPareto);
  ctrl.vary_cost = aurora.vary_cost = true;
  ctrl.duration = aurora.duration = 400.0;
  ExperimentResult rc = RunExperiment(ctrl);
  ExperimentResult ra = RunExperiment(aurora);
  EXPECT_GT(ra.summary.accumulated_violation,
            2.0 * rc.summary.accumulated_violation);
}

TEST(ExperimentTest, RampDestabilizesAurora) {
  // Section 4.3.2 Example 1: under a monotonically increasing rate the
  // Aurora shedder lags by one period forever (S(k) derived from
  // fin(k-1)), so the queue — and the delay — grows through the whole
  // ramp.
  ExperimentConfig cfg = ShortConfig(Method::kAurora, WorkloadKind::kRamp);
  cfg.ramp_from = 150.0;
  cfg.ramp_to = 900.0;
  cfg.spacing = ArrivalSource::Spacing::kDeterministic;
  ExperimentResult r = RunExperiment(cfg);
  const auto& rows = r.recorder.rows();
  const size_t n = rows.size();
  double mid = rows[n / 2].m.y_hat;
  double late = rows[n - 2].m.y_hat;
  EXPECT_GT(late, mid + 1.0);
}

TEST(ExperimentTest, CtrlHandlesTheSameRamp) {
  ExperimentConfig cfg = ShortConfig(Method::kCtrl, WorkloadKind::kRamp);
  cfg.ramp_from = 150.0;
  cfg.ramp_to = 900.0;
  cfg.spacing = ArrivalSource::Spacing::kDeterministic;
  ExperimentResult r = RunExperiment(cfg);
  EXPECT_LT(r.summary.max_overshoot, 1.0);
}

TEST(ExperimentTest, SetpointScheduleIsApplied) {
  ExperimentConfig cfg = ShortConfig(Method::kCtrl, WorkloadKind::kConstant);
  cfg.constant_rate = 300.0;
  cfg.target_delay = 1.0;
  cfg.setpoint_schedule = {{60.0, 3.0}};
  ExperimentResult r = RunExperiment(cfg);
  const auto& rows = r.recorder.rows();
  EXPECT_DOUBLE_EQ(rows[30].m.target_delay, 1.0);
  EXPECT_DOUBLE_EQ(rows[80].m.target_delay, 3.0);

  // Steady-state measured delays before and after.
  double before = 0, after = 0;
  int nb = 0, na = 0;
  for (const auto& row : rows) {
    if (!row.m.has_y_measured) continue;
    if (row.m.t > 30 && row.m.t < 60) {
      before += row.m.y_measured;
      ++nb;
    }
    if (row.m.t > 100) {
      after += row.m.y_measured;
      ++na;
    }
  }
  EXPECT_NEAR(before / nb, 1.0, 0.25);
  EXPECT_NEAR(after / na, 3.0, 0.4);
}

TEST(ExperimentTest, QueueShedderConfigRuns) {
  ExperimentConfig cfg = ShortConfig(Method::kCtrl, WorkloadKind::kPareto);
  cfg.use_queue_shedder = true;
  cfg.vary_cost = true;
  ExperimentResult r = RunExperiment(cfg);
  EXPECT_GT(r.summary.offered, 0u);
  EXPECT_GT(r.summary.loss_ratio, 0.0);
}

TEST(ExperimentTest, ArrivalTraceExposed) {
  ExperimentConfig cfg = ShortConfig(Method::kNone, WorkloadKind::kSine);
  ExperimentResult r = RunExperiment(cfg);
  EXPECT_FALSE(r.arrival_trace.empty());
  EXPECT_GE(r.arrival_trace.Duration(), cfg.duration - 1.0);
}

// Pops `n` arrivals from each source and expects them equal, field by
// field, including the source index.
void ExpectSameArrivals(ArrivalSource& a, ArrivalSource& b, int n) {
  for (int i = 0; i < n; ++i) {
    const Tuple x = a.Pop();
    const Tuple y = b.Pop();
    ASSERT_EQ(x.source, y.source) << "arrival " << i;
    ASSERT_EQ(x.arrival_time, y.arrival_time) << "arrival " << i;
    ASSERT_EQ(x.value, y.value) << "arrival " << i;
    ASSERT_EQ(x.aux, y.aux) << "arrival " << i;
  }
}

TEST(ExperimentTest, ArrivalSourcesForPinsTheStreamSplit) {
  ExperimentConfig cfg = ShortConfig(Method::kCtrl, WorkloadKind::kWeb);
  cfg.seed = 11;
  const RateTrace full = BuildArrivalTrace(cfg);

  // Source i: index first_index + i, seed seed + 3 + i, the aggregate
  // trace scaled by rate_scale / n.
  std::vector<ArrivalSource> split =
      ArrivalSourcesFor(cfg, 3, /*first_index=*/5, /*rate_scale=*/1.5);
  ASSERT_EQ(split.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    ArrivalSource ref(5 + i, full.Scaled(0.5), cfg.spacing,
                      cfg.seed + 3 + static_cast<uint64_t>(i));
    ArrivalSource& got = split[static_cast<size_t>(i)];
    EXPECT_EQ(got.source_index(), 5 + i);
    EXPECT_EQ(got.trace().values(), ref.trace().values());
    EXPECT_EQ(got.next(), ref.next());
    ExpectSameArrivals(got, ref, 200);
  }

  // rate_scale / n == 1 passes the trace through unscaled; n = 1 is the
  // sim's own source.
  std::vector<ArrivalSource> doubled = ArrivalSourcesFor(cfg, 2, 0, 2.0);
  EXPECT_EQ(doubled[1].trace().values(), full.values());
  ArrivalSource second(1, full, cfg.spacing, cfg.seed + 4);
  ExpectSameArrivals(doubled[1], second, 200);
  std::vector<ArrivalSource> one = ArrivalSourcesFor(cfg, 1);
  ASSERT_EQ(one.size(), 1u);
  ArrivalSource sim_source(0, full, cfg.spacing, cfg.seed + 3);
  ExpectSameArrivals(one[0], sim_source, 200);
}

TEST(ExperimentTest, DepartureObserverInvoked) {
  ExperimentConfig cfg = ShortConfig(Method::kNone, WorkloadKind::kConstant);
  cfg.constant_rate = 50.0;
  uint64_t count = 0;
  cfg.departure_observer = [&count](const Departure&) { ++count; };
  ExperimentResult r = RunExperiment(cfg);
  EXPECT_GT(count, 0u);
  EXPECT_EQ(count, r.summary.departures);
}

TEST(ExperimentTest, EstimationNoiseChangesOutcome) {
  ExperimentConfig a = ShortConfig(Method::kCtrl, WorkloadKind::kPareto);
  ExperimentConfig b = a;
  b.estimation_noise = 0.2;
  EXPECT_NE(RunExperiment(a).summary.accumulated_violation,
            RunExperiment(b).summary.accumulated_violation);
}

TEST(ExperimentTest, MistunedHeadroomChangesAuroraLoss) {
  // Fig. 16: a smaller H estimate makes AURORA shed more.
  ExperimentConfig a = ShortConfig(Method::kAurora, WorkloadKind::kPareto);
  a.duration = 400.0;
  ExperimentConfig b = a;
  b.headroom_est = 0.90;
  double loss_a = RunExperiment(a).summary.loss_ratio;
  double loss_b = RunExperiment(b).summary.loss_ratio;
  EXPECT_GT(loss_b, loss_a);
}

TEST(ExperimentTest, ConfigErrorNamesEachBadKnob) {
  EXPECT_EQ(ExperimentConfigError(ExperimentConfig{}), "");
  ExperimentConfig edge;  // the closed ends of every range are runnable
  edge.headroom_est = edge.headroom_true = edge.cost_ewma = 1.0;
  edge.setpoint_schedule = {{0.0, 1.0}, {edge.duration, 3.0}};
  edge.constant_rate = 0.0;  // an empty run
  EXPECT_EQ(ExperimentConfigError(edge), "");

  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* knob;
    std::function<void(ExperimentConfig*)> mutate;
  };
  const std::vector<Case> cases = {
      {"duration", [](ExperimentConfig* c) { c->duration = 0.0; }},
      {"T", [](ExperimentConfig* c) { c->period = 0.0; }},
      {"T", [nan](ExperimentConfig* c) { c->period = nan; }},
      {"yd", [](ExperimentConfig* c) { c->target_delay = -1.0; }},
      {"capacity", [](ExperimentConfig* c) { c->capacity_rate = 0.0; }},
      {"H", [](ExperimentConfig* c) { c->headroom_est = 0.0; }},
      {"H_true", [](ExperimentConfig* c) { c->headroom_true = 1.5; }},
      {"cost_ewma", [](ExperimentConfig* c) { c->cost_ewma = 0.0; }},
      {"noise", [](ExperimentConfig* c) { c->estimation_noise = -1.0; }},
      {"beta", [](ExperimentConfig* c) { c->pareto.beta = 0.0; }},
      {"beta", [nan](ExperimentConfig* c) { c->pareto.beta = nan; }},
      {"rate", [](ExperimentConfig* c) { c->constant_rate = -3.0; }},
      {"rate", [nan](ExperimentConfig* c) { c->constant_rate = nan; }},
      {"rate",
       [](ExperimentConfig* c) {
         c->constant_rate = std::numeric_limits<double>::infinity();
       }},
      {"setpoint",
       [](ExperimentConfig* c) { c->setpoint_schedule = {{-1.0, 3.0}}; }},
      {"setpoint",
       [](ExperimentConfig* c) { c->setpoint_schedule = {{500.0, 3.0}}; }},
      {"setpoint",
       [](ExperimentConfig* c) { c->setpoint_schedule = {{100.0, 0.0}}; }},
  };
  for (const Case& c : cases) {
    ExperimentConfig cfg;
    c.mutate(&cfg);
    const std::string error = ExperimentConfigError(cfg);
    EXPECT_EQ(error.rfind(std::string(c.knob) + " ", 0), 0u)
        << c.knob << ": '" << error << "'";
  }
}

}  // namespace
}  // namespace ctrlshed
