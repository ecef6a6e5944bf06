// Tests of the unified actuation plane: the ActuationPlanner's arithmetic
// and — most importantly — per-period EXPECT_EQ identity between the
// refactored plan-based FeedbackLoop and a hand-written replica of the
// pre-plan control tick (Sample -> DesiredRate -> Configure ->
// NotifyActuation).

#include "control/actuation_plan.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "control/ctrl_controller.h"
#include "core/feedback_loop.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "rt/rt_monitor.h"
#include "runner/networks.h"
#include "shedding/entry_shedder.h"
#include "shedding/queue_shedder.h"
#include "sim/simulation.h"
#include "workload/arrival_source.h"
#include "workload/traces.h"

namespace ctrlshed {
namespace {

PeriodMeasurement MakeMeasurement(double fin_forecast, double queue = 0.0) {
  PeriodMeasurement m;
  m.period = 1.0;
  m.fin = fin_forecast;
  m.fin_forecast = fin_forecast;
  m.queue = queue;
  m.cost = 0.005;
  return m;
}

// --- Planner: entry-only arithmetic --------------------------------------

TEST(ActuationPlannerTest, EntryOnlyMatchesEntryShedderExactly) {
  // The entry-only plan must be expression-for-expression the arithmetic
  // EntryShedder::Configure has always used: identical alpha AND identical
  // anti-windup value over a grid including both clamps and the idle gate.
  const ActuationPlanner planner;  // defaults: entry-only
  EntryShedder shedder(1);
  for (double fin : {0.0, 50.0, 100.0, 200.0, 1000.0}) {
    for (double v : {-50.0, 0.0, 10.0, 150.0, 200.0, 300.0}) {
      const PeriodMeasurement m = MakeMeasurement(fin);
      const ActuationPlan plan = planner.BuildPlan(v, m);
      const double applied = shedder.Configure(v, m);
      EXPECT_EQ(plan.site, ActuationSite::kEntry) << "fin=" << fin;
      EXPECT_FALSE(plan.in_network_enabled);
      EXPECT_EQ(plan.entry_alpha, shedder.drop_probability())
          << "v=" << v << " fin=" << fin;
      EXPECT_EQ(plan.planned_applied, applied) << "v=" << v << " fin=" << fin;
    }
  }
}

TEST(ActuationPlannerTest, EntryShedderApplyPlanForwardsToConfigure) {
  const ActuationPlanner planner;
  EntryShedder via_plan(1);
  EntryShedder via_configure(1);
  const PeriodMeasurement m = MakeMeasurement(200.0);
  const ActuationPlan plan = planner.BuildPlan(150.0, m);
  EXPECT_EQ(via_plan.ApplyPlan(plan, m), via_configure.Configure(150.0, m));
  EXPECT_EQ(via_plan.drop_probability(), via_configure.drop_probability());
}

// --- Planner: in-network arithmetic --------------------------------------

TEST(ActuationPlannerTest, UnderloadPlanIsEntrySiteWithNoShedding) {
  ActuationPlannerOptions opts;
  opts.allow_in_network = true;
  const ActuationPlanner planner(opts);
  const ActuationPlan plan = planner.BuildPlan(250.0, MakeMeasurement(200.0));
  EXPECT_TRUE(plan.in_network_enabled);
  EXPECT_EQ(plan.site, ActuationSite::kEntry);
  EXPECT_DOUBLE_EQ(plan.entry_alpha, 0.0);
  // In-network anti-windup reports v itself on underload (the actuator can
  // realize any v >= fin by just admitting everything).
  EXPECT_DOUBLE_EQ(plan.planned_applied, 250.0);
  EXPECT_DOUBLE_EQ(plan.queue_target, 0.0);
}

TEST(ActuationPlannerTest, PositiveRateShedsOnlyAtEntry) {
  ActuationPlannerOptions opts;
  opts.allow_in_network = true;
  const ActuationPlanner planner(opts);
  // v=150, fin=200, T=1: to_shed=50 < incoming=200, so the queues are
  // never touched and the entry gate carries alpha = 50/200.
  const ActuationPlan plan =
      planner.BuildPlan(150.0, MakeMeasurement(200.0, /*queue=*/80.0));
  EXPECT_EQ(plan.site, ActuationSite::kEntry);
  EXPECT_DOUBLE_EQ(plan.to_shed, 50.0);
  EXPECT_DOUBLE_EQ(plan.incoming, 200.0);
  EXPECT_DOUBLE_EQ(plan.queue_target, 0.0);
  EXPECT_NEAR(plan.entry_alpha, 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(plan.planned_applied, 150.0);
}

TEST(ActuationPlannerTest, NegativeRateSplitsAcrossQueueAndEntry) {
  ActuationPlannerOptions opts;
  opts.allow_in_network = true;
  const ActuationPlanner planner(opts);
  // v=-30, fin=200, T=1: to_shed=230. Blocking the whole inflow covers
  // 200; the remaining 30 come out of the queued backlog.
  const ActuationPlan plan =
      planner.BuildPlan(-30.0, MakeMeasurement(200.0, /*queue=*/100.0));
  EXPECT_EQ(plan.site, ActuationSite::kSplit);
  EXPECT_DOUBLE_EQ(plan.to_shed, 230.0);
  EXPECT_DOUBLE_EQ(plan.queue_target, 30.0);
  EXPECT_DOUBLE_EQ(plan.entry_alpha, 1.0);
  // Budget achievable: anti-windup reports the full desired rate.
  EXPECT_DOUBLE_EQ(plan.planned_applied, -30.0);
}

TEST(ActuationPlannerTest, IdleStreamPlanIsPureInNetwork) {
  ActuationPlannerOptions opts;
  opts.allow_in_network = true;
  const ActuationPlanner planner(opts);
  // Nothing arriving, negative v: everything comes from the queues.
  const ActuationPlan plan =
      planner.BuildPlan(-50.0, MakeMeasurement(0.0, /*queue=*/100.0));
  EXPECT_EQ(plan.site, ActuationSite::kInNetwork);
  EXPECT_DOUBLE_EQ(plan.queue_target, 50.0);
  EXPECT_DOUBLE_EQ(plan.entry_alpha, 0.0);
  EXPECT_DOUBLE_EQ(plan.planned_applied, -50.0);
}

TEST(ActuationPlannerTest, UnachievableRemainderFeedsAntiWindup) {
  ActuationPlannerOptions opts;
  opts.allow_in_network = true;
  const ActuationPlanner planner(opts);
  // Queue holds only 10 of the needed 50: the unachieved 40 are reported
  // back so the integrator does not wind up against a saturated actuator.
  const ActuationPlan plan =
      planner.BuildPlan(-50.0, MakeMeasurement(0.0, /*queue=*/10.0));
  EXPECT_EQ(plan.site, ActuationSite::kInNetwork);
  EXPECT_DOUBLE_EQ(plan.queue_target, 10.0);
  EXPECT_DOUBLE_EQ(plan.planned_applied, -10.0);  // v + unachieved/T
}

TEST(ActuationPlannerTest, BudgetLoadUsesNominalEntryCost) {
  ActuationPlannerOptions opts;
  opts.allow_in_network = true;
  opts.nominal_entry_cost = 0.005;
  const ActuationPlanner planner(opts);
  const ActuationPlan plan =
      planner.BuildPlan(-30.0, MakeMeasurement(200.0, /*queue=*/100.0));
  EXPECT_DOUBLE_EQ(plan.queue_target, 30.0);
  EXPECT_DOUBLE_EQ(plan.queue_budget_load, 30.0 * 0.005);
}

TEST(ActuationPlannerTest, EmptyFeedbackYieldsScalarBudgetOnly) {
  ActuationPlannerOptions opts;
  opts.allow_in_network = true;
  const ActuationPlanner planner(opts);
  const ActuationPlan plan =
      planner.BuildPlan(-30.0, MakeMeasurement(0.0, /*queue=*/100.0));
  EXPECT_DOUBLE_EQ(plan.queue_target, 30.0);
}

TEST(ActuationSiteTest, NamesAreStable) {
  EXPECT_EQ(ActuationSiteName(ActuationSite::kEntry), "entry");
  EXPECT_EQ(ActuationSiteName(ActuationSite::kInNetwork), "in_network");
  EXPECT_EQ(ActuationSiteName(ActuationSite::kSplit), "split");
}

// --- Refactor identity: plan-based loop vs the pre-plan control tick ------

// A literal replica of the control tick as it existed before ActuationPlan:
//   m = monitor.Sample(...); v = controller.DesiredRate(m);
//   applied = shedder.Configure(v, m); controller.NotifyActuation(applied);
// driven by the same arrival/admission wiring FeedbackLoop::OnArrival uses,
// and sampling the way FeedbackLoop samples (EngineSample into a one-shard
// RtMonitor).
struct LegacyRow {
  PeriodMeasurement m;
  double v = 0.0;
  double alpha = 0.0;
};

struct LegacyRig {
  LegacyRig(double capacity, double headroom, Shedder* (*make)(Engine*),
            CostMultiplierFn cost_multiplier = nullptr) {
    BuildIdentificationNetwork(&net, headroom / capacity);
    engine = std::make_unique<Engine>(&net, headroom);
    if (cost_multiplier) engine->SetCostMultiplier(cost_multiplier);
    sim.AttachProcess(engine.get());
    CtrlOptions ctrl_opts;
    ctrl_opts.headroom = headroom;
    controller = std::make_unique<CtrlController>(ctrl_opts);
    shedder.reset(make(engine.get()));
    RtMonitorOptions mo;
    mo.period = 1.0;
    mo.headroom = headroom;
    monitor = std::make_unique<RtMonitor>(engine->NominalEntryCost(), 1, mo);
  }

  void Run(RateTrace trace, SimTime end, double target_delay) {
    engine->SetDepartureCallback([this](const Departure& d) {
      delay_sum += d.depart_time - d.arrival_time;
      ++delay_count;
    });
    sim.ScheduleEvery(1.0, 1.0, [this, target_delay](SimTime now) {
      PeriodMeasurement m = monitor->Sample(
          {EngineSample(*engine, now, offered, delay_sum, delay_count)},
          target_delay);
      const double v = controller->DesiredRate(m);
      const double applied = shedder->Configure(v, m);
      controller->NotifyActuation(applied);
      rows.push_back({m, v, shedder->drop_probability()});
      return true;
    });
    ArrivalSource src(0, std::move(trace), ArrivalSource::Spacing::kPoisson, 9);
    src.Start(&sim, [this](const Tuple& t) {
      ++offered;
      if (!shedder->Admit(t)) return;
      engine->Inject(t, t.arrival_time);
    });
    sim.Run(end);
  }

  Simulation sim;
  QueryNetwork net;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<CtrlController> controller;
  std::unique_ptr<Shedder> shedder;
  std::unique_ptr<RtMonitor> monitor;
  uint64_t offered = 0;
  double delay_sum = 0.0;
  uint64_t delay_count = 0;
  std::vector<LegacyRow> rows;
};

// The refactored loop under identical seeds and wiring.
struct PlanRig {
  PlanRig(double capacity, double headroom, Shedder* (*make)(Engine*),
          bool allow_in_network,
          CostMultiplierFn cost_multiplier = nullptr) {
    BuildIdentificationNetwork(&net, headroom / capacity);
    engine = std::make_unique<Engine>(&net, headroom);
    if (cost_multiplier) engine->SetCostMultiplier(cost_multiplier);
    sim.AttachProcess(engine.get());
    CtrlOptions ctrl_opts;
    ctrl_opts.headroom = headroom;
    controller = std::make_unique<CtrlController>(ctrl_opts);
    shedder.reset(make(engine.get()));
    FeedbackLoopOptions opts;
    opts.allow_in_network_shed = allow_in_network;
    loop = std::make_unique<FeedbackLoop>(&sim, engine.get(), controller.get(),
                                          shedder.get(), opts);
  }

  void Run(RateTrace trace, SimTime end) {
    loop->Start();
    ArrivalSource src(0, std::move(trace), ArrivalSource::Spacing::kPoisson, 9);
    src.Start(&sim, [this](const Tuple& t) { loop->OnArrival(t); });
    sim.Run(end);
  }

  Simulation sim;
  QueryNetwork net;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<CtrlController> controller;
  std::unique_ptr<Shedder> shedder;
  std::unique_ptr<FeedbackLoop> loop;
};

void ExpectIdenticalTimelines(const LegacyRig& legacy, const PlanRig& plan) {
  const auto& rows = plan.loop->recorder().rows();
  ASSERT_EQ(legacy.rows.size(), rows.size());
  ASSERT_GT(rows.size(), 10u);
  for (size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("period " + std::to_string(i));
    // EXPECT_EQ on doubles on purpose: the refactor promises bit identity,
    // not approximate equality.
    EXPECT_EQ(legacy.rows[i].m.queue, rows[i].m.queue);
    EXPECT_EQ(legacy.rows[i].m.y_hat, rows[i].m.y_hat);
    EXPECT_EQ(legacy.rows[i].m.fin, rows[i].m.fin);
    EXPECT_EQ(legacy.rows[i].m.fout, rows[i].m.fout);  // fixes u = v - fout
    EXPECT_EQ(legacy.rows[i].m.cost, rows[i].m.cost);
    EXPECT_EQ(legacy.rows[i].v, rows[i].v);
    EXPECT_EQ(legacy.rows[i].alpha, rows[i].alpha);
  }
  // The plants saw identical admission decisions, so every engine counter
  // agrees too.
  EXPECT_EQ(legacy.engine->counters().admitted,
            plan.engine->counters().admitted);
  EXPECT_EQ(legacy.engine->counters().departed,
            plan.engine->counters().departed);
  EXPECT_EQ(legacy.engine->counters().shed_lineages,
            plan.engine->counters().shed_lineages);
}

Shedder* MakeEntry(Engine*) { return new EntryShedder(5); }
Shedder* MakeQueue(Engine* e) { return new QueueShedder(e, 5); }

TEST(ActuationRefactorIdentityTest, EntryOnlyLoopIsBitIdentical) {
  LegacyRig legacy(190.0, 0.97, MakeEntry);
  PlanRig plan(190.0, 0.97, MakeEntry, /*allow_in_network=*/false);
  legacy.Run(MakeConstantTrace(40.0, 300.0), 40.0, /*target_delay=*/2.0);
  plan.Run(MakeConstantTrace(40.0, 300.0), 40.0);
  ExpectIdenticalTimelines(legacy, plan);
}

TEST(ActuationRefactorIdentityTest, QueueShedderLoopIsBitIdentical) {
  // A 3x cost step mid-run makes the controller demand sharp load cuts
  // (Fig. 15's regime), driving v negative so the in-network half of the
  // plan actually executes in both loops.
  CostMultiplierFn step = [](SimTime t) {
    return t < 20.0 ? 1.0 : 3.0;
  };
  LegacyRig legacy(190.0, 0.97, MakeQueue, step);
  PlanRig plan(190.0, 0.97, MakeQueue, /*allow_in_network=*/true, step);
  legacy.Run(MakeConstantTrace(40.0, 300.0), 40.0, /*target_delay=*/2.0);
  plan.Run(MakeConstantTrace(40.0, 300.0), 40.0);
  ExpectIdenticalTimelines(legacy, plan);
  // The step actually pushed shedding into the network.
  EXPECT_GT(plan.engine->counters().shed_lineages, 0u);
}

TEST(ActuationRefactorIdentityTest, PlanLoopRecordsActuationSite) {
  CostMultiplierFn step = [](SimTime t) {
    return t < 20.0 ? 1.0 : 3.0;
  };
  PlanRig plan(190.0, 0.97, MakeQueue, /*allow_in_network=*/true, step);
  plan.Run(MakeConstantTrace(40.0, 300.0), 40.0);
  bool saw_entry = false;
  bool saw_in_network = false;
  uint64_t queue_shed_rows = 0;
  for (const PeriodRecord& row : plan.loop->recorder().rows()) {
    saw_entry |= row.site == ActuationSite::kEntry;
    saw_in_network |= row.site != ActuationSite::kEntry;
    queue_shed_rows += row.queue_shed;
  }
  EXPECT_TRUE(saw_entry);
  EXPECT_TRUE(saw_in_network);
  // Per-period queue_shed deltas add up to the engine's total.
  EXPECT_EQ(queue_shed_rows, plan.engine->counters().shed_lineages);
}

}  // namespace
}  // namespace ctrlshed
