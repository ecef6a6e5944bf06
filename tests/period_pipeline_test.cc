// Tests of the period pipeline every runtime shares: the one-slice site
// agrees with the plan's wherever the actuator realized the planned alpha,
// the realized-alpha rule names the whole-tuple overshoot plan what it did,
// the applied / share-weighted alpha / queue_target folds across slices,
// an uncontrolled period, and a cluster period whose ack was lost.

#include "core/period_pipeline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cluster/cluster_control_loop.h"
#include "common/rng.h"
#include "control/period_math.h"
#include "core/feedback_loop.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "runner/networks.h"
#include "shedding/entry_shedder.h"
#include "shedding/queue_shedder.h"
#include "shedding/semantic_shedder.h"
#include "sim/simulation.h"
#include "workload/arrival_source.h"
#include "workload/traces.h"

namespace ctrlshed {
namespace {

constexpr double kCost = 0.010;  // per-tuple cost of the one-operator chain

ActuationPlannerOptions InNetwork() {
  return ActuationPlannerOptions{kCost, /*allow_in_network=*/true,
                                 /*cost_aware=*/false};
}

// Runs one period of `pipeline` over a single slice actuated by `shedder`;
// returns the realized slice and stores the plan it was handed.
SliceActuation RunOneSlice(PeriodPipeline* pipeline, Shedder* shedder,
                           PeriodRecord* rec, ActuationPlan* plan) {
  SliceActuation slice;
  pipeline->Actuate(
      rec, {&rec->m.fin, 1}, {&rec->m.queue, 1},
      [&](size_t, const ActuationPlan& p, const PeriodMeasurement& mi) {
        *plan = p;
        slice = ApplySlice(*shedder, p, mi);
        return slice;
      });
  return slice;
}

// Tops the engine's queue back up to `target` tuples.
void Load(Engine* engine, uint64_t target) {
  while (engine->QueuedTuples() < target) engine->Inject(Tuple{}, 0.0);
}

TEST(PeriodPipelineTest, OneSliceSiteMatchesPlanSiteWhenAlphaIsRealized) {
  QueryNetwork net;
  BuildUniformChain(&net, 1, kCost);
  Engine engine(&net, 1.0);
  EntryShedder entry(1);
  SemanticShedder semantic;
  QueueShedder queue(&engine, 2);
  PeriodPipeline pipeline("test", InNetwork());

  Rng rng(20061017);
  int queue_checked = 0;
  int non_entry = 0;
  for (int draw = 0; draw < 12000; ++draw) {
    PeriodRecord rec;
    rec.m.period = rng.Uniform(0.1, 2.0);
    rec.m.fin_forecast = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(0.0, 500.0);
    rec.m.fin = rec.m.fin_forecast;
    rec.m.queue = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.0, 200.0);
    rec.v = rng.Uniform(-300.0, 600.0);
    SCOPED_TRACE("draw " + std::to_string(draw));
    ActuationPlan plan;

    RunOneSlice(&pipeline, &entry, &rec, &plan);
    EXPECT_EQ(rec.site, plan.site) << "entry shedder";
    non_entry += plan.site != ActuationSite::kEntry;

    RunOneSlice(&pipeline, &semantic, &rec, &plan);
    EXPECT_EQ(rec.site, plan.site) << "semantic shedder";

    Load(&engine, 256);
    const SliceActuation s = RunOneSlice(&pipeline, &queue, &rec, &plan);
    if (s.alpha == plan.entry_alpha) {
      EXPECT_EQ(rec.site, plan.site) << "queue shedder";
      ++queue_checked;
    }
  }
  // The draws exercised the in-network sites, and the queue shedder
  // realized its planned alpha on most of them.
  EXPECT_GT(non_entry, 1000);
  EXPECT_GT(queue_checked, 6000);
}

TEST(PeriodPipelineTest, WholeTupleOvershootReadsInNetwork) {
  // Under one arrival per period, v < 0: the plan takes 1.2 tuples out of
  // the queues and blocks the whole inflow (split). Removal is by whole
  // tuples, so two go, which alone covers the excess; no entry drop is
  // left, and the period says in_network.
  QueryNetwork net;
  BuildUniformChain(&net, 1, kCost);
  Engine engine(&net, 1.0);
  Load(&engine, 10);
  QueueShedder queue(&engine, 3);
  PeriodPipeline pipeline("test", InNetwork());

  PeriodRecord rec;
  rec.m.period = 1.0;
  rec.m.fin = rec.m.fin_forecast = 0.5;
  rec.m.queue = 10.0;
  rec.v = -1.2;
  ActuationPlan plan;
  const SliceActuation s = RunOneSlice(&pipeline, &queue, &rec, &plan);

  EXPECT_EQ(plan.site, ActuationSite::kSplit);
  EXPECT_DOUBLE_EQ(plan.entry_alpha, 1.0);
  EXPECT_EQ(engine.counters().shed_lineages, 2u);
  EXPECT_EQ(s.alpha, 0.0);
  EXPECT_EQ(rec.site, ActuationSite::kInNetwork);
}

TEST(PeriodPipelineTest, FoldsAppliedAndShareWeightedAlphaAcrossSlices) {
  PeriodPipeline pipeline("test", InNetwork());
  Rng rng(7);
  for (int iter = 0; iter < 600; ++iter) {
    const size_t n = static_cast<size_t>(1 + iter % 8);
    const int shape = (iter / 8) % 3;  // uniform, skewed, all idle
    std::vector<double> fin(n);
    std::vector<double> queue(n);
    std::vector<SliceActuation> realized(n);
    for (size_t i = 0; i < n; ++i) {
      fin[i] = shape == 2   ? 0.0
               : shape == 1 ? rng.Uniform(0.0, 1.0) *
                                  std::pow(10.0, rng.UniformInt(-3, 5))
                            : rng.Uniform(0.0, 500.0);
      queue[i] = rng.Uniform(0.0, 100.0);
      realized[i] = {rng.Uniform(-50.0, 400.0), rng.Uniform(0.0, 1.0),
                     rng.Bernoulli(0.3) ? rng.Uniform(0.0, 20.0) : 0.0};
    }
    PeriodRecord rec;
    rec.m.period = 1.0;
    rec.m.fin_forecast = rng.Uniform(0.0, 1000.0);
    rec.m.admitted = rng.Uniform(0.0, 1000.0);
    rec.v = rng.Uniform(-100.0, 900.0);
    const std::vector<double> shares = ProportionalShares(fin);
    size_t delivered = 0;
    const ActuationFold fold = pipeline.Actuate(
        &rec, fin, queue,
        [&](size_t i, const ActuationPlan& plan, const PeriodMeasurement& mi) {
          EXPECT_EQ(i, delivered++);
          EXPECT_EQ(plan.v, rec.v * shares[i]);
          EXPECT_EQ(mi.fin, fin[i]);
          EXPECT_EQ(mi.queue, queue[i]);
          EXPECT_EQ(mi.fin_forecast, rec.m.fin_forecast * shares[i]);
          EXPECT_EQ(mi.admitted, rec.m.admitted * shares[i]);
          return realized[i];
        });
    ASSERT_EQ(delivered, n);
    double applied = 0.0;
    double alpha = 0.0;
    double queue_target = 0.0;
    for (size_t i = 0; i < n; ++i) {
      applied += realized[i].applied;
      alpha += shares[i] * realized[i].alpha;
      queue_target += realized[i].queue_target;
    }
    EXPECT_EQ(fold.applied, applied);
    EXPECT_EQ(fold.alpha, alpha);
    EXPECT_EQ(fold.queue_target, queue_target);
    EXPECT_EQ(rec.alpha, alpha);
    EXPECT_EQ(rec.site, queue_target > 0.0
                            ? (alpha > 0.0 ? ActuationSite::kSplit
                                           : ActuationSite::kInNetwork)
                            : ActuationSite::kEntry);
  }
}

TEST(PeriodPipelineTest, UncontrolledPeriodRecordsEntryWithoutShedding) {
  Simulation sim;
  QueryNetwork net;
  BuildIdentificationNetwork(&net, 0.97 / 190.0);
  Engine engine(&net, 0.97);
  sim.AttachProcess(&engine);
  FeedbackLoopOptions opts;
  opts.allow_in_network_shed = true;
  FeedbackLoop loop(&sim, &engine, /*controller=*/nullptr, /*shedder=*/nullptr,
                    opts);
  loop.Start();
  ArrivalSource src(0, MakeConstantTrace(20.0, 380.0),
                    ArrivalSource::Spacing::kPoisson, 9);
  src.Start(&sim, [&loop](const Tuple& t) { loop.OnArrival(t); });
  sim.Run(20.0);

  ASSERT_GE(loop.recorder().rows().size(), 19u);
  for (const PeriodRecord& row : loop.recorder().rows()) {
    EXPECT_EQ(row.v, 0.0);
    EXPECT_EQ(row.alpha, 0.0);
    EXPECT_EQ(row.site, ActuationSite::kEntry);
  }
  EXPECT_GT(loop.recorder().rows().back().m.queue, 0.0);  // overloaded
}

// --- Cluster: one slice per node, completed by ack ---------------------------

NodeStatsReport Report(uint32_t id, uint32_t seq, SimTime now) {
  NodeStatsReport r;
  r.node_id = id;
  r.seq = seq;
  r.deltas.now = now;
  r.deltas.offered = 300;
  r.deltas.admitted = 200;
  r.deltas.drained_base_load = 180 * 0.97 / 190.0;
  r.deltas.busy_seconds = r.deltas.drained_base_load;
  r.deltas.queue = 40.0;
  return r;
}

// Two nodes report and tick at t = 1; node 0 acks its whole slice at
// entry, node 1's ack is `ack1` (or lost when null); the period closes at
// the t = 2 tick. Returns the closed row and the t = 2 command total.
PeriodRecord RunClusterPeriod(const ActuationAck* ack1, double* next_v) {
  ClusterControlLoopOptions o;
  o.nominal_entry_cost = 0.97 / 190.0;
  ClusterControlLoop ctl(o);
  for (uint32_t id = 0; id < 2; ++id) {
    NodeHello h;
    h.node_id = id;
    h.workers = 1;
    h.headroom = 0.97;
    h.nominal_cost = o.nominal_entry_cost;
    ctl.OnHello(h, 0.0);
    ctl.OnReport(Report(id, 1, 1.0), 1.0);
  }
  const std::vector<NodeCommand> cmds = ctl.Tick(1.0);
  EXPECT_EQ(cmds.size(), 2u);
  ActuationAck ack0;
  ack0.node_id = cmds[0].node_id;
  ack0.seq = cmds[0].act.seq;
  ack0.applied = cmds[0].act.v;
  ctl.OnAck(ack0);
  if (ack1 != nullptr) {
    ActuationAck a = *ack1;
    a.node_id = cmds[1].node_id;
    a.seq = cmds[1].act.seq;
    a.applied = cmds[1].act.v;
    ctl.OnAck(a);
  }
  for (uint32_t id = 0; id < 2; ++id) ctl.OnReport(Report(id, 2, 2.0), 2.0);
  *next_v = 0.0;
  for (const NodeCommand& c : ctl.Tick(2.0)) *next_v += c.act.v;
  EXPECT_EQ(ctl.recorder().rows().size(), 1u);
  return ctl.recorder().rows().front();
}

TEST(PeriodPipelineTest, LostAckCountsTheWholeSliceAtEntry) {
  ActuationAck full;  // node 1 realized its whole slice at entry
  double v_full = 0.0;
  const PeriodRecord acked = RunClusterPeriod(&full, &v_full);

  ActuationAck in_network = full;  // node 1 drained its queues instead
  in_network.queue_shed = 12.0;
  double v_in_network = 0.0;
  const PeriodRecord drained = RunClusterPeriod(&in_network, &v_in_network);
  ASSERT_NE(drained.site, ActuationSite::kEntry);

  double v_lost = 0.0;
  const PeriodRecord lost = RunClusterPeriod(nullptr, &v_lost);
  // Anti-windup saw the whole slice applied: the next command is the one
  // a full ack produces.
  EXPECT_EQ(v_lost, v_full);
  EXPECT_EQ(lost.site, ActuationSite::kEntry);
  EXPECT_EQ(lost.queue_shed, 0.0);
  EXPECT_EQ(lost.alpha, acked.alpha);
}

}  // namespace
}  // namespace ctrlshed
