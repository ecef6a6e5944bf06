#include "cluster/cluster_sim.h"

#include <memory>
#include <utility>
#include <vector>

#include "cluster/controller_runner.h"
#include "cluster/node_runner.h"
#include "common/macros.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "metrics/qos_metrics.h"
#include "rt/rt_stats.h"
#include "runner/networks.h"
#include "sim/simulation.h"
#include "workload/arrival_source.h"

namespace ctrlshed {

namespace {

/// One simulated worker: its own query network, engine and entry shedder,
/// fed by its own slice of the arrival trace — the sim twin of one rt
/// shard (engine thread + SPSC ring) of one node process.
struct SimShard {
  std::unique_ptr<QueryNetwork> net;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Shedder> shedder;
  std::unique_ptr<ArrivalSource> source;
  /// Victim RNG for in-network budgets, same seed stream as the rt
  /// workers' (seed + 6 + 7919g); null when the queue shedder is off.
  std::unique_ptr<Rng> shed_rng;

  // Ingress-side counters (what RtSharedStats holds in the socket runner).
  uint64_t offered = 0;
  uint64_t entry_shed = 0;
  double delay_sum = 0.0;
  uint64_t delay_count = 0;
};

struct SimNode {
  uint32_t id = 0;
  bool dead = false;
  std::vector<SimShard> shards;
  std::vector<Shedder*> shedder_ptrs;
  std::unique_ptr<NodeAgent> agent;
};

}  // namespace

ClusterSimResult RunClusterSim(const ClusterSimConfig& config) {
  const ExperimentConfig& base = config.base;
  CS_CHECK_MSG(config.nodes >= 1, "need at least one node");
  CS_CHECK_MSG(config.workers_per_node >= 1, "need at least one worker");
  CS_CHECK_MSG(config.loss >= 0.0 && config.loss < 1.0,
               "loss must be in [0, 1)");
  CS_CHECK_MSG(config.report_delay >= 0.0 && config.command_delay >= 0.0,
               "delays must be non-negative");
  CS_CHECK_MSG(base.method == Method::kCtrl,
               "the cluster loop drives the CTRL controller");
  CS_CHECK_MSG(base.predictor == PredictorKind::kLastValue,
               "rate predictors are not supported in the cluster loop");
  CS_CHECK_MSG(base.setpoint_schedule.empty(),
               "setpoint schedules are not supported in the cluster loop");
  CS_CHECK_MSG(base.estimation_noise == 0.0,
               "injected estimation noise is a single-process sim knob");
  CS_CHECK_MSG(ExperimentConfigError(base).empty(),
               "invalid config (validate with ExperimentConfigError first)");

  const int total_shards = config.nodes * config.workers_per_node;
  const double nominal_cost = base.headroom_true / base.capacity_rate;

  Simulation sim;
  QosAccumulator qos(base.target_delay);
  uint64_t total_queue_shed = 0;  // folded at the end from engines

  // --- Plants: N nodes x W shards, each shard a full engine --------------
  // Seeds and trace slices follow the rt runtime's convention with the
  // shard index taken cluster-wide, so nodes=1 reproduces the
  // single-process sharded runtime's streams exactly.
  const RateTrace full_trace = BuildArrivalTrace(base);

  // Fig. 14 time-varying cost: ONE shared trace sampled by every engine —
  // the cluster twin of a workload-wide cost drift.
  const CostMultiplierFn cost_multiplier = CostMultiplierFor(base);

  std::vector<std::unique_ptr<SimNode>> nodes;
  nodes.reserve(static_cast<size_t>(config.nodes));
  for (int n = 0; n < config.nodes; ++n) {
    auto node = std::make_unique<SimNode>();
    node->id = static_cast<uint32_t>(n);
    node->shards.resize(static_cast<size_t>(config.workers_per_node));
    for (int w = 0; w < config.workers_per_node; ++w) {
      const int g = n * config.workers_per_node + w;  // cluster-wide index
      SimShard& shard = node->shards[static_cast<size_t>(w)];
      shard.net = std::make_unique<QueryNetwork>();
      BuildIdentificationNetwork(shard.net.get(), nominal_cost);
      shard.engine =
          std::make_unique<Engine>(shard.net.get(), base.headroom_true);
      shard.engine->SetCostMultiplier(cost_multiplier);
      sim.AttachProcess(shard.engine.get());
      shard.shedder = MakeEntryShedder(base, g);
      if (base.use_queue_shedder) {
        shard.shed_rng = std::make_unique<Rng>(
            base.seed + 6 + 7919 * static_cast<uint64_t>(g));
      }
      node->shedder_ptrs.push_back(shard.shedder.get());
      shard.source = std::make_unique<ArrivalSource>(
          g,
          total_shards == 1
              ? full_trace
              : full_trace.Scaled(1.0 / static_cast<double>(total_shards)),
          base.spacing, base.seed + 3 + static_cast<uint64_t>(g));
      shard.engine->SetDepartureCallback(
          [&shard, &qos](const Departure& d) {
            shard.delay_sum += d.depart_time - d.arrival_time;
            ++shard.delay_count;
            qos.OnDeparture(d);
          });
    }

    node->agent = std::make_unique<NodeAgent>(
        nominal_cost, node->shedder_ptrs, NodeAgentOptionsFor(base, node->id));
    if (base.use_queue_shedder) {
      // The sim's budget "handshake" is a direct call: the plant is
      // single-threaded, so the shard drains its in-network budget at the
      // moment the plan lands (the rt runner posts through RtSharedStats
      // instead and the worker pump drains it asynchronously).
      SimNode* node_raw = node.get();
      const Engine::QueueVictimPolicy policy =
          base.cost_aware_shedding ? Engine::QueueVictimPolicy::kMostCostly
                                   : Engine::QueueVictimPolicy::kRandom;
      node->agent->SetBudgetPoster(
          [node_raw, policy](size_t i, const ActuationPlan& plan, uint32_t) {
            if (plan.queue_budget_load <= 0.0) return;
            SimShard& shard = node_raw->shards[i];
            shard.engine->ShedFromQueues(plan.queue_budget_load,
                                         *shard.shed_rng, policy);
          });
    }
    nodes.push_back(std::move(node));
  }

  // --- Controller --------------------------------------------------------
  ClusterControlLoop ctl(ClusterLoopOptions(base, config.stale_periods));
  if (config.fleet_metrics != nullptr) {
    ctl.SetMetricsSink(config.fleet_metrics);
  }

  // --- Modeled network ---------------------------------------------------
  // Zero delay = a direct call, so a message sent at a period boundary is
  // processed before the events scheduled for that boundary run (the
  // single-process ordering). Positive delay = a scheduled event; loss is
  // one seeded Bernoulli draw per message in deterministic event order.
  uint64_t messages_sent = 0;
  uint64_t messages_lost = 0;
  Rng net_rng(base.seed + config.net_seed_offset);
  auto deliver = [&](double delay, std::function<void()> fn) {
    ++messages_sent;
    if (config.loss > 0.0 && net_rng.Bernoulli(config.loss)) {
      ++messages_lost;
      return;
    }
    if (delay <= 0.0) {
      fn();
    } else {
      sim.Schedule(sim.now() + delay, std::move(fn));
    }
  };

  // Membership: hellos are exchanged at connection setup in the socket
  // runner; here that is time zero, before any arrival.
  for (const auto& node : nodes) {
    ctl.OnHello(node->agent->Hello(), 0.0);
  }

  // --- Arrivals ----------------------------------------------------------
  for (const auto& node_ptr : nodes) {
    SimNode* node = node_ptr.get();
    for (SimShard& shard_ref : node->shards) {
      SimShard* shard = &shard_ref;
      shard->source->Start(&sim, [node, shard](const Tuple& t) {
        // A dead node's producers write into a closed socket: the tuples
        // vanish before any counter on the node side sees them.
        if (node->dead) return;
        ++shard->offered;
        if (!shard->shedder->Admit(t)) {
          ++shard->entry_shed;
          return;
        }
        Tuple local = t;
        local.source = 0;  // each shard's network has a single entry
        shard->engine->Inject(local, local.arrival_time);
      });
    }
  }

  // --- Period events -----------------------------------------------------
  // Node ticks are registered before the controller tick, so at a shared
  // boundary kT every node samples and (at zero delay) its report lands
  // before the controller aggregates — the exact single-process order of
  // RtLoop::ControlTick. ScheduleEvery re-schedules in execution order, so
  // the invariant holds every round.
  for (const auto& node_ptr : nodes) {
    SimNode* node = node_ptr.get();
    sim.ScheduleEvery(base.period, base.period, [&, node](SimTime t) {
      if (node->dead) return false;
      std::vector<RtSample> samples;
      samples.reserve(node->shards.size());
      for (const SimShard& shard : node->shards) {
        RtSample s;
        s.now = t;
        s.offered = shard.offered;
        s.entry_shed = shard.entry_shed;
        s.ring_dropped = 0;
        const EngineCounters& c = shard.engine->counters();
        s.admitted = c.admitted;
        s.departed = c.departed;
        s.queue_shed = c.shed_lineages;
        s.queue_shed_load = c.shed_base_load;
        s.busy_seconds = c.busy_seconds;
        s.drained_base_load = c.drained_base_load;
        s.queued_tuples = shard.engine->QueuedTuples();
        s.outstanding_base_load = shard.engine->OutstandingBaseLoad();
        s.delay_sum = shard.delay_sum;
        s.delay_count = shard.delay_count;
        samples.push_back(s);
      }
      NodeStatsReport report = node->agent->Tick(samples);
      if (config.piggyback_metrics) {
        // The sim nodes have no registry; the snapshot mirrors the same
        // cumulative counters a socket node's registry carries. Attaching
        // it must not perturb the plant: the controller folds it into a
        // metrics sink (when one is set) and nothing else.
        report.has_metrics = true;
        report.metrics.counters = {
            {"rt.offered", report.offered_total},
            {"rt.entry_shed", report.entry_shed_total},
            {"rt.departed", report.departed_total}};
        report.metrics.gauges = {{"rt.alpha", report.alpha}};
      }
      deliver(config.report_delay,
              [&ctl, &sim, report]() { ctl.OnReport(report, sim.now()); });
      return true;
    });
  }

  sim.ScheduleEvery(base.period, base.period, [&](SimTime t) {
    const std::vector<NodeCommand> commands = ctl.Tick(t);
    for (const NodeCommand& cmd : commands) {
      SimNode* target = nullptr;
      for (const auto& node : nodes) {
        if (node->id == cmd.node_id) {
          target = node.get();
          break;
        }
      }
      if (target == nullptr) continue;
      deliver(config.command_delay, [&, target, act = cmd.act]() {
        if (target->dead) return;
        const ActuationAck ack = target->agent->Apply(act);
        deliver(config.report_delay, [&ctl, ack]() { ctl.OnAck(ack); });
      });
    }
    return true;
  });

  if (config.kill_node_at > 0.0) {
    CS_CHECK_MSG(config.kill_node_id < static_cast<uint32_t>(config.nodes),
                 "kill_node_id out of range");
    SimNode* victim = nodes[config.kill_node_id].get();
    sim.Schedule(config.kill_node_at, [victim]() { victim->dead = true; });
  }

  sim.Run(base.duration);
  ctl.Flush();  // a period still waiting on delayed/lost acks

  // --- Results -----------------------------------------------------------
  ClusterSimResult result;
  result.recorder = ctl.recorder();
  result.nominal_cost = nominal_cost;
  result.messages_sent = messages_sent;
  result.messages_lost = messages_lost;
  result.ticks = ctl.ticks();
  result.idle_ticks = ctl.idle_ticks();
  result.final_active_nodes = ctl.monitor().active_count();

  uint64_t offered = 0;
  uint64_t entry_shed = 0;
  for (const auto& node : nodes) {
    ClusterSimNodeResult nr;
    nr.node_id = node->id;
    nr.killed = node->dead;
    nr.final_alpha = node->agent->last_alpha();
    for (const SimShard& shard : node->shards) {
      nr.offered += shard.offered;
      nr.entry_shed += shard.entry_shed;
      nr.queue_shed += shard.engine->counters().shed_lineages;
      nr.departed += shard.engine->counters().departed;
    }
    offered += nr.offered;
    entry_shed += nr.entry_shed;
    total_queue_shed += nr.queue_shed;
    result.nodes.push_back(nr);
  }

  // The sim has no ingress rings, so nothing is ring-dropped.
  result.summary = qos.Summarize(offered, entry_shed, /*ring_dropped=*/0,
                                 total_queue_shed);
  return result;
}

}  // namespace ctrlshed
