// Tests of the deterministic cluster simulator. The load-bearing one is
// the identity contract: a one-node cluster with zero network delay and
// zero loss must produce per-period control signals EXPECT_EQ-equal (not
// merely close) to a single-process sharded control loop built on the
// same plant — the distributed machinery (node agent, wire deltas,
// aggregate monitor, proportional fan-out, ack-driven anti-windup) must
// add exactly nothing arithmetically. The rest covers bit-reproducibility
// under delay/loss, graceful degradation when a node dies, and loss
// accounting.

#include "cluster/cluster_sim.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/recorder.h"
#include "rt/rt_clock.h"
#include "rt/rt_loop.h"
#include "rt/rt_runtime.h"
#include "sim/simulation.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/prom_export.h"
#include "workload/arrival_source.h"

namespace ctrlshed {
namespace {

ExperimentConfig BaseConfig() {
  ExperimentConfig base;
  base.method = Method::kCtrl;
  base.workload = WorkloadKind::kWeb;  // ~2x overload of the 190/s plant
  base.duration = 40.0;
  base.period = 1.0;
  base.target_delay = 2.0;
  return base;
}

// --- Single-process reference ----------------------------------------------
// The production RtLoop over the same plant the socket runtime builds
// (BuildRtPlant, MakeController), driven on virtual time: sources admit
// through OnArrival and pump their shard at each arrival, and each period
// boundary pumps the plant (RtPlant::Pump) and runs RtLoop::Tick. No
// cluster machinery anywhere.

Recorder RunSingleProcessReference(const ExperimentConfig& base, int workers) {
  RtClock clock;  // never started: the simulation drives every pump
  RtPlantConfig plant_config;
  plant_config.workers = workers;
  RtPlant plant = BuildRtPlant(base, plant_config, /*telemetry=*/nullptr,
                               &clock);
  std::unique_ptr<LoadController> controller =
      MakeController(base, static_cast<double>(workers) * base.headroom_est);
  RtLoopOptions lopts;
  lopts.period = base.period;
  lopts.target_delay = base.target_delay;
  lopts.headroom = base.headroom_est;
  lopts.cost_ewma = base.cost_ewma;
  lopts.adapt_headroom = base.adapt_headroom;
  lopts.queue_shed = base.use_queue_shedder;
  lopts.cost_aware_shed = base.cost_aware_shedding;
  RtLoop loop(&plant, &clock, controller.get(), lopts);

  Simulation sim;
  std::vector<ArrivalSource> sources = ArrivalSourcesFor(base, workers);
  for (size_t w = 0; w < sources.size(); ++w) {
    RtEngine* engine = plant.engine(w);
    sources[w].Start(&sim, [&loop, engine](const Tuple& t) {
      loop.OnArrival(t);
      engine->Pump(t.arrival_time);
    });
  }
  sim.ScheduleEvery(base.period, base.period, [&](SimTime t) {
    plant.Pump(t);
    loop.Tick(t);
    return true;
  });

  sim.Run(base.duration);
  return loop.recorder();
}

double MaxAlpha(const Recorder& r) {
  double max_alpha = 0.0;
  for (const PeriodRecord& row : r.rows()) {
    if (row.alpha > max_alpha) max_alpha = row.alpha;
  }
  return max_alpha;
}

void ExpectRowsIdentical(const Recorder& cluster, const Recorder& ref) {
  ASSERT_EQ(cluster.rows().size(), ref.rows().size());
  ASSERT_FALSE(cluster.rows().empty());
  for (size_t i = 0; i < ref.rows().size(); ++i) {
    const PeriodRecord& a = cluster.rows()[i];
    const PeriodRecord& b = ref.rows()[i];
    SCOPED_TRACE("period " + std::to_string(i + 1));
    EXPECT_EQ(a.m.k, b.m.k);
    EXPECT_EQ(a.m.t, b.m.t);
    EXPECT_EQ(a.m.fin, b.m.fin);
    EXPECT_EQ(a.m.admitted, b.m.admitted);
    EXPECT_EQ(a.m.fout, b.m.fout);
    EXPECT_EQ(a.m.queue, b.m.queue);
    EXPECT_EQ(a.m.cost, b.m.cost);
    EXPECT_EQ(a.m.y_hat, b.m.y_hat);
    // The acceptance tuple: (q, y_hat, u, v, alpha), u = v - fout.
    EXPECT_EQ(a.v, b.v);
    EXPECT_EQ(a.v - a.m.fout, b.v - b.m.fout);
    EXPECT_EQ(a.alpha, b.alpha);
  }
}

TEST(ClusterSimIdentityTest, OneNodeOneWorkerEqualsSingleProcessLoop) {
  ClusterSimConfig config;
  config.base = BaseConfig();
  config.nodes = 1;
  config.workers_per_node = 1;

  const ClusterSimResult cluster = RunClusterSim(config);
  const Recorder ref = RunSingleProcessReference(config.base, 1);

  EXPECT_EQ(cluster.idle_ticks, 0);
  ExpectRowsIdentical(cluster.recorder, ref);
  // The loop actually shed under overload — this was not a trivially idle
  // plant agreeing about zeros.
  EXPECT_GT(MaxAlpha(cluster.recorder), 0.0);
  EXPECT_GT(cluster.nodes[0].entry_shed, 0u);
  EXPECT_GT(cluster.nodes[0].departed, 0u);
}

TEST(ClusterSimIdentityTest, OneNodeTwoWorkersEqualsShardedLoop) {
  // The node-internal shard fan-out must also survive the trip through
  // the cluster machinery unchanged.
  ClusterSimConfig config;
  config.base = BaseConfig();
  config.base.web.mean_rate = 780.0;  // ~2x the two-worker plant
  config.nodes = 1;
  config.workers_per_node = 2;

  const ClusterSimResult cluster = RunClusterSim(config);
  const Recorder ref = RunSingleProcessReference(config.base, 2);

  ExpectRowsIdentical(cluster.recorder, ref);
  EXPECT_GT(MaxAlpha(cluster.recorder), 0.0);
}

TEST(ClusterSimIdentityTest, OneNodeInNetworkEqualsShardedLoop) {
  // The in-network budget path: under the Fig. 14 cost jump the loop
  // drains queues, and the node agent and RtLoop both post each budget
  // through RtPlant::PostPlan.
  for (int workers : {1, 2}) {
    for (bool cost_aware : {false, true}) {
      SCOPED_TRACE("workers " + std::to_string(workers) + ", cost_aware " +
                   std::to_string(cost_aware));
      ClusterSimConfig config;
      config.base = BaseConfig();
      config.base.duration = 30.0;
      config.base.web.mean_rate = 390.0 * workers;
      config.base.vary_cost = true;
      config.base.cost_params.jump_at = 12.0;
      config.base.use_queue_shedder = true;
      config.base.cost_aware_shedding = cost_aware;
      config.nodes = 1;
      config.workers_per_node = workers;

      const ClusterSimResult cluster = RunClusterSim(config);
      const Recorder ref = RunSingleProcessReference(config.base, workers);

      ExpectRowsIdentical(cluster.recorder, ref);
      EXPECT_GT(cluster.nodes[0].queue_shed, 0u);
      bool in_network = false;
      for (const PeriodRecord& row : cluster.recorder.rows()) {
        if (row.site != ActuationSite::kEntry) in_network = true;
      }
      EXPECT_TRUE(in_network);
    }
  }
}

TEST(ClusterSimTest, MultiNodeRunsAreBitReproducible) {
  ClusterSimConfig config;
  config.base = BaseConfig();
  config.base.duration = 30.0;
  config.nodes = 3;
  config.workers_per_node = 2;
  config.report_delay = 0.05;
  config.command_delay = 0.08;
  config.loss = 0.05;

  const ClusterSimResult a = RunClusterSim(config);
  const ClusterSimResult b = RunClusterSim(config);

  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.idle_ticks, b.idle_ticks);
  ASSERT_EQ(a.recorder.rows().size(), b.recorder.rows().size());
  for (size_t i = 0; i < a.recorder.rows().size(); ++i) {
    const PeriodRecord& ra = a.recorder.rows()[i];
    const PeriodRecord& rb = b.recorder.rows()[i];
    EXPECT_EQ(ra.m.t, rb.m.t);
    EXPECT_EQ(ra.m.queue, rb.m.queue);
    EXPECT_EQ(ra.m.y_hat, rb.m.y_hat);
    EXPECT_EQ(ra.v, rb.v);
    EXPECT_EQ(ra.alpha, rb.alpha);
  }
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].offered, b.nodes[i].offered);
    EXPECT_EQ(a.nodes[i].entry_shed, b.nodes[i].entry_shed);
    EXPECT_EQ(a.nodes[i].departed, b.nodes[i].departed);
    EXPECT_EQ(a.nodes[i].final_alpha, b.nodes[i].final_alpha);
  }
  EXPECT_EQ(a.summary.mean_delay, b.summary.mean_delay);
  EXPECT_EQ(a.summary.shed, b.summary.shed);
}

TEST(ClusterSimTest, DelayedMessagesChangeNothingButTiming) {
  // Sanity: the delayed variant still controls (sheds, keeps the recorder
  // full) even though reports/commands arrive a fraction of a period late.
  ClusterSimConfig config;
  config.base = BaseConfig();
  config.nodes = 2;
  config.workers_per_node = 1;
  config.base.web.mean_rate = 780.0;
  config.report_delay = 0.2;
  config.command_delay = 0.2;

  const ClusterSimResult r = RunClusterSim(config);
  EXPECT_EQ(r.messages_lost, 0u);
  EXPECT_EQ(r.final_active_nodes, 2);
  // The first boundary's reports are still in flight at the first
  // controller tick, so exactly that tick is idle; every later one has a
  // report (0.2 s delay < one period) and produces a row.
  EXPECT_EQ(r.ticks, 40);
  EXPECT_EQ(r.idle_ticks, 1);
  ASSERT_EQ(r.recorder.rows().size(), 39u);
  EXPECT_GT(MaxAlpha(r.recorder), 0.0);
  EXPECT_GT(r.nodes[0].departed, 0u);
  EXPECT_GT(r.nodes[1].departed, 0u);
}

TEST(ClusterSimTest, KilledNodeDegradesGracefully) {
  ClusterSimConfig config;
  config.base = BaseConfig();
  config.base.duration = 40.0;
  config.base.web.mean_rate = 780.0;
  config.nodes = 2;
  config.workers_per_node = 1;
  config.stale_periods = 3;
  config.kill_node_at = 20.0;
  config.kill_node_id = 1;

  const ClusterSimResult r = RunClusterSim(config);

  ASSERT_EQ(r.nodes.size(), 2u);
  EXPECT_TRUE(r.nodes[1].killed);
  EXPECT_FALSE(r.nodes[0].killed);
  // The victim did real work before dying; the survivor kept departing
  // after.
  EXPECT_GT(r.nodes[1].departed, 0u);
  EXPECT_GT(r.nodes[0].departed, 0u);
  // The controller never stopped: every period after the stale window
  // still produced a row (no idle ticks — the survivor kept reporting).
  EXPECT_EQ(r.idle_ticks, 0);
  EXPECT_EQ(r.ticks, 40);
  EXPECT_EQ(r.final_active_nodes, 1);
  // The dead node's producers hit a closed socket: offered stops growing,
  // so its total is roughly half of the survivor's.
  EXPECT_LT(r.nodes[1].offered, r.nodes[0].offered * 3 / 4);
}

TEST(ClusterSimTest, PiggybackedMetricsFoldWithoutPerturbingThePlant) {
  ClusterSimConfig config;
  config.base = BaseConfig();
  config.base.duration = 30.0;
  config.base.web.mean_rate = 780.0;
  config.nodes = 2;
  config.workers_per_node = 1;

  MetricsRegistry fleet;
  ClusterSimConfig with = config;
  with.fleet_metrics = &fleet;  // piggyback_metrics defaults to true
  const ClusterSimResult a = RunClusterSim(with);

  ClusterSimConfig without = config;
  without.piggyback_metrics = false;
  const ClusterSimResult b = RunClusterSim(without);

  // Federation is observability-only: the control rows must be
  // EXPECT_EQ-identical with and without snapshot piggybacking.
  ExpectRowsIdentical(a.recorder, b.recorder);

  // Both nodes' snapshots landed in the controller registry under their
  // node-id prefix. The folded counter is the last report's cumulative
  // total, so it is positive but never exceeds the node's final count.
  const MetricsSnapshot snap = fleet.Snapshot();
  for (uint32_t id = 0; id < 2; ++id) {
    const std::string prefix = "node" + std::to_string(id) + ".";
    ASSERT_TRUE(snap.counters.count(prefix + "rt.offered")) << prefix;
    const uint64_t folded = snap.counters.at(prefix + "rt.offered");
    EXPECT_GT(folded, 0u);
    EXPECT_LE(folded, a.nodes[id].offered);
    EXPECT_TRUE(snap.gauges.count(prefix + "rt.alpha")) << prefix;
  }

  // The Prometheus rendering federates both nodes into one family with
  // node="<id>" labels — a single scrape sees the whole fleet.
  std::ostringstream prom;
  WritePrometheusText(snap, prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("rt_offered_total{node=\"0\"}"), std::string::npos);
  EXPECT_NE(text.find("rt_offered_total{node=\"1\"}"), std::string::npos);
}

TEST(ClusterSimTest, CostTraceAndQueueShedderActuateInNetwork) {
  ClusterSimConfig config;
  config.base = BaseConfig();
  config.base.duration = 30.0;
  config.base.web.mean_rate = 780.0;
  config.base.vary_cost = true;
  config.base.use_queue_shedder = true;
  // Pull the Fig. 14 cost jump inside the short test window so the
  // controller is forced to a negative v (queue drain) while queues are
  // full — the only way a budget reaches the nodes' in-network shedders.
  config.base.cost_params.jump_at = 12.0;
  config.nodes = 2;
  config.workers_per_node = 1;

  const ClusterSimResult r = RunClusterSim(config);

  // Realized in-network drops landed on the nodes and fold into the
  // one-scheme shed accounting.
  uint64_t node_queue_shed = 0;
  for (const ClusterSimNodeResult& n : r.nodes) node_queue_shed += n.queue_shed;
  EXPECT_GT(node_queue_shed, 0u);
  EXPECT_EQ(r.summary.queue_shed, node_queue_shed);
  EXPECT_EQ(r.summary.shed, r.summary.entry_shed + r.summary.ring_dropped +
                                r.summary.queue_shed);

  // The controller's timeline knows where the shedding happened: at least
  // one period actuated in-network (or split), and the acks' victim
  // tallies flowed into the rows' queue_shed column.
  bool saw_in_network = false;
  double acked_victims = 0.0;
  for (const PeriodRecord& row : r.recorder.rows()) {
    if (row.site != ActuationSite::kEntry) saw_in_network = true;
    acked_victims += row.queue_shed;
  }
  EXPECT_TRUE(saw_in_network);
  EXPECT_GT(acked_victims, 0.0);
}

TEST(ClusterSimTest, MessageLossIsCountedAndSurvived) {
  ClusterSimConfig config;
  config.base = BaseConfig();
  config.base.duration = 30.0;
  config.base.web.mean_rate = 780.0;
  config.nodes = 2;
  config.workers_per_node = 1;
  config.loss = 0.3;

  const ClusterSimResult r = RunClusterSim(config);
  EXPECT_GT(r.messages_lost, 0u);
  EXPECT_GT(r.messages_sent, r.messages_lost);
  // Even at 30% control-plane loss the loop keeps shedding under the 2x
  // overload (lost acks are treated as fully applied, lost reports as a
  // missing period — neither stalls the controller).
  EXPECT_EQ(r.final_active_nodes, 2);
  EXPECT_GT(MaxAlpha(r.recorder), 0.0);
  EXPECT_GT(r.summary.shed, 0u);
}

}  // namespace
}  // namespace ctrlshed
