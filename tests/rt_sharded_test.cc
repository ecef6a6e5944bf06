// Multi-shard rt runtime: the shared shard-admission path, SPSC routing
// stress across 4 shards x 2 global sources each (8 producer threads), and
// an end-to-end sharded closed loop. The stress test is the TSan workhorse
// for the partitioned ingress/aggregation paths: every cross-thread
// handoff in RtLoop's sharded OnArrival, the per-shard shedder mutexes,
// and the N-worker departure fan-in get exercised concurrently.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/operator.h"
#include "engine/query_network.h"
#include "rt/rt_clock.h"
#include "rt/rt_engine.h"
#include "rt/rt_loop.h"
#include "rt/rt_runtime.h"
#include "shedding/entry_shedder.h"

namespace ctrlshed {
namespace {

constexpr int kShards = 4;
constexpr int kSourcesPerShard = 2;
constexpr int kGlobalSources = kShards * kSourcesPerShard;

/// A two-source chain: both local sources enter the same map operator.
void BuildTwoSourceNetwork(QueryNetwork* net, double entry_cost) {
  auto* op = net->Add(std::make_unique<MapOp>("m0", entry_cost));
  net->AddEntry(0, op);
  net->AddEntry(1, op);
  net->Finalize();
}

// AdmitToShard on an un-started engine: the pump runs synchronously on
// this thread, so the departures show exactly which tuples got in and
// under which local source.
struct AdmitRig {
  RtClock clock{1.0};  // never started: Pump gets the time
  QueryNetwork net;
  std::unique_ptr<RtEngine> engine;
  std::vector<Departure> departed;
  std::mutex mu;

  AdmitRig() {
    BuildTwoSourceNetwork(&net, /*entry_cost=*/1e-6);
    engine = std::make_unique<RtEngine>(&net, &clock, /*num_sources=*/2,
                                        RtEngineOptions{});
    engine->SetDepartureCallback(
        [this](const Departure& d) { departed.push_back(d); });
  }
};

/// 200 tuples (three full chunks of 64 and a tail of 8) from global
/// source 5, each identified by its arrival time.
std::vector<Tuple> GlobalSourceBatch() {
  std::vector<Tuple> tuples(200);
  for (size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].source = 5;
    tuples[i].arrival_time = 1e-3 * static_cast<double>(i + 1);
    tuples[i].value = 0.5;
  }
  return tuples;
}

EntryShedder SheddingShedder() {
  EntryShedder shedder(/*seed=*/11);
  PeriodMeasurement m;
  m.fin_forecast = 100.0;
  shedder.Configure(/*v=*/60.0, m);  // alpha = 1 - 60/100
  return shedder;
}

TEST(AdmitToShardTest, BatchedDecisionsMatchPerTupleAdmit) {
  AdmitRig rig;
  EntryShedder shedder = SheddingShedder();
  EntryShedder twin = SheddingShedder();
  ASSERT_DOUBLE_EQ(shedder.drop_probability(), 0.4);
  const std::vector<Tuple> tuples = GlobalSourceBatch();
  std::vector<double> expected;  // arrival times the twin admits
  for (const Tuple& t : tuples) {
    if (twin.Admit(t)) expected.push_back(t.arrival_time);
  }
  ASSERT_GT(expected.size(), 0u);
  ASSERT_LT(expected.size(), tuples.size());

  AdmitToShard(rig.engine.get(), &shedder, &rig.mu, /*local_source=*/1,
               tuples.data(), tuples.size());
  const RtSharedStats* stats = rig.engine->stats();
  EXPECT_EQ(stats->offered.load(), tuples.size());
  EXPECT_EQ(stats->entry_shed.load(), tuples.size() - expected.size());
  EXPECT_EQ(stats->ring_dropped.load(), 0u);

  rig.engine->Pump(/*now=*/10.0);
  std::vector<double> admitted;
  for (const Departure& d : rig.departed) {
    EXPECT_EQ(d.source, 1);  // renumbered to the engine's local source
    admitted.push_back(d.arrival_time);
  }
  std::sort(admitted.begin(), admitted.end());
  EXPECT_EQ(admitted, expected);
}

TEST(AdmitToShardTest, NullShedderAdmitsEverything) {
  AdmitRig rig;
  const std::vector<Tuple> tuples = GlobalSourceBatch();
  AdmitToShard(rig.engine.get(), /*shedder=*/nullptr, &rig.mu,
               /*local_source=*/0, tuples.data(), tuples.size());
  EXPECT_EQ(rig.engine->stats()->offered.load(), tuples.size());
  EXPECT_EQ(rig.engine->stats()->entry_shed.load(), 0u);
  rig.engine->Pump(/*now=*/10.0);
  ASSERT_EQ(rig.departed.size(), tuples.size());
  for (const Departure& d : rig.departed) EXPECT_EQ(d.source, 0);
}

TEST(RtShardedTest, EightProducersRouteAcrossFourShards) {
  constexpr int kTuplesPerSource = 2000;
  RtClock clock(/*compression=*/2000.0);

  std::vector<RtShard> shards;
  for (int i = 0; i < kShards; ++i) {
    RtShard shard;
    shard.net = std::make_unique<QueryNetwork>();
    BuildTwoSourceNetwork(shard.net.get(), /*entry_cost=*/20e-6);
    RtEngineOptions eopts;
    eopts.ring_capacity = 1 << 14;
    eopts.shard_index = i;
    shard.engine = std::make_unique<RtEngine>(shard.net.get(), &clock,
                                              kSourcesPerShard, eopts);
    shards.push_back(std::move(shard));
  }
  RtPlant plant(std::move(shards));

  RtLoopOptions lopts;
  lopts.period = 0.5;
  RtLoop loop(&plant, &clock, /*controller=*/nullptr, lopts);
  ASSERT_EQ(plant.size(), static_cast<size_t>(kShards));

  std::atomic<uint64_t> departed_observed{0};
  loop.SetDepartureObserver(
      [&departed_observed](const Departure&) { ++departed_observed; });

  clock.Start();
  loop.Start();

  // One producer thread per GLOBAL source index — the SPSC contract RtLoop
  // must preserve through its global->local remap.
  std::vector<std::thread> producers;
  for (int s = 0; s < kGlobalSources; ++s) {
    producers.emplace_back([&loop, &clock, s] {
      for (int i = 0; i < kTuplesPerSource; ++i) {
        Tuple t;
        t.source = s;
        t.arrival_time = clock.Now();
        t.value = static_cast<double>(i);
        loop.OnArrival(t);
      }
    });
  }
  for (std::thread& p : producers) p.join();

  // Give the workers a moment to drain, then stop everything.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  loop.Stop();

  // Conservation: every offer landed on exactly one shard.
  const uint64_t total =
      static_cast<uint64_t>(kGlobalSources) * kTuplesPerSource;
  EXPECT_EQ(plant.Totals().offered, total);
  uint64_t per_shard_sum = 0;
  for (size_t i = 0; i < plant.size(); ++i) {
    const uint64_t offered = plant.Shard(i).offered;
    // Each shard owns exactly 2 of the 8 global sources.
    EXPECT_EQ(offered,
              static_cast<uint64_t>(kSourcesPerShard) * kTuplesPerSource);
    per_shard_sum += offered;
  }
  EXPECT_EQ(per_shard_sum, total);

  // No controller and huge rings: nothing may be shed; everything that
  // departed was observed exactly once (the departure fan-in is
  // serialized, no lost updates).
  EXPECT_EQ(plant.Totals().entry_shed, 0u);
  EXPECT_EQ(plant.Totals().ring_dropped, 0u);
  const uint64_t departed = plant.Totals().departed;
  EXPECT_EQ(departed_observed.load(), departed);
  EXPECT_EQ(loop.qos().departures(), departed);
  EXPECT_LE(departed, total);
}

RtRunConfig ShardedConfig() {
  RtRunConfig cfg;
  cfg.base.workload = WorkloadKind::kConstant;
  cfg.base.seed = 7;
  cfg.time_compression = 40.0;
  cfg.workers = 4;
  return cfg;
}

TEST(RtShardedTest, UnderloadedShardedRunShedsNothing) {
  // 380 t/s against 4 workers x 190 t/s: what overloads one worker is
  // comfortable for four. The sharded runtime's whole point.
  RtRunConfig cfg = ShardedConfig();
  cfg.base.method = Method::kCtrl;
  cfg.base.constant_rate = 380.0;
  cfg.base.duration = 8.0;

  RtRunResult r = RunRtExperiment(cfg);

  EXPECT_EQ(r.workers, 4);
  ASSERT_EQ(r.shards.size(), 4u);
  EXPECT_LT(r.summary.loss_ratio, 0.05);
  EXPECT_LT(r.summary.mean_delay, 0.5);

  // The 1/N trace split keeps the shards statistically balanced.
  uint64_t shard_sum = 0;
  for (const RtShardSummary& s : r.shards) {
    EXPECT_GT(s.offered, r.summary.offered / 8);
    EXPECT_LT(s.offered, r.summary.offered / 2);
    shard_sum += s.offered;
  }
  EXPECT_EQ(shard_sum, r.summary.offered);
}

TEST(RtShardedTest, OverloadedShardedLoopTracksSetpoint) {
  // 2x overload of the AGGREGATE: 4 workers x 190 t/s x 2. One controller
  // must hold the summed plant near the setpoint through the fan-out.
  RtRunConfig cfg = ShardedConfig();
  cfg.base.method = Method::kCtrl;
  cfg.base.constant_rate = 1520.0;
  cfg.base.duration = 15.0;
  cfg.base.target_delay = 2.0;

  RtRunResult r = RunRtExperiment(cfg);

  EXPECT_GT(r.summary.loss_ratio, 0.25);
  EXPECT_LT(r.summary.loss_ratio, 0.70);
  ASSERT_GE(r.recorder.rows().size(), 10u);

  double sum = 0.0;
  int n = 0;
  for (const PeriodRecord& row : r.recorder.rows()) {
    if (row.m.k <= 5) continue;
    sum += row.m.y_hat;
    ++n;
    // Sharded rows export the queue decomposition; it must sum to the
    // aggregate the controller saw.
    ASSERT_EQ(row.shard_q.size(), 4u);
    double q = 0.0;
    for (double qi : row.shard_q) q += qi;
    EXPECT_NEAR(q, row.m.queue, 1e-9);
  }
  ASSERT_GT(n, 4);
  const double mean_yhat = sum / n;
  EXPECT_GT(mean_yhat, 0.5 * cfg.base.target_delay);
  EXPECT_LT(mean_yhat, 1.5 * cfg.base.target_delay);
  EXPECT_GT(r.summary.shed, 0u);
}

}  // namespace
}  // namespace ctrlshed
