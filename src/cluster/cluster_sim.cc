#include "cluster/cluster_sim.h"

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "cluster/controller_runner.h"
#include "cluster/node_runner.h"
#include "common/macros.h"
#include "common/rng.h"
#include "metrics/qos_metrics.h"
#include "rt/rt_clock.h"
#include "rt/rt_loop.h"
#include "rt/rt_runtime.h"
#include "sim/simulation.h"
#include "workload/arrival_source.h"

namespace ctrlshed {

namespace {

/// The loss stream's seed is the run's seed plus this.
constexpr uint64_t kNetSeedOffset = 17;

/// One simulated node: the socket node's plant, fed by its slices of the
/// arrival trace and pumped by simulation events, not worker threads.
struct SimNode {
  SimNode(uint32_t node_id, const ExperimentConfig& base,
          const RtPlantConfig& config, const RtClock* clock)
      : id(node_id), plant(BuildRtPlant(base, config, nullptr, clock)) {}

  uint32_t id;
  bool dead = false;
  RtPlant plant;
  std::unique_ptr<NodeAgent> agent;
  std::mutex mu;  ///< AdmitToShard's shedder lock (uncontended here).
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

  const double nominal_cost = NominalCost(base);

  Simulation sim;
  QosAccumulator qos(base.target_delay);
  RtClock clock;  // never started: simulation events drive every pump

  // --- Plants: N nodes, each the socket node's W-shard plant ------------
  // Shedder and victim seeds are node-local, as in every `ctrlshed node`
  // process; the arrival split takes the shard index cluster-wide (shard g
  // replays stream g), so nodes=1 replays the rt runtime's streams exactly.
  std::vector<ArrivalSource> sources =
      ArrivalSourcesFor(base, config.nodes * config.workers_per_node);
  RtPlantConfig plant_config;
  plant_config.workers = config.workers_per_node;
  std::vector<std::unique_ptr<SimNode>> nodes;
  nodes.reserve(static_cast<size_t>(config.nodes));
  for (int n = 0; n < config.nodes; ++n) {
    auto node = std::make_unique<SimNode>(static_cast<uint32_t>(n), base,
                                          plant_config, &clock);
    node->plant.SetDepartureCallback(
        [&qos](const Departure& d) { qos.OnDeparture(d); });
    node->agent = std::make_unique<NodeAgent>(
        nominal_cost, node->plant.shedders(),
        NodeAgentOptionsFor(base, node->id));
    // Each in-network budget goes out through the plan handshake, as in
    // the socket node; the shard's following pumps drain it.
    RtPlant* plant = &node->plant;
    node->agent->SetBudgetPoster(
        [plant](size_t i, const ActuationPlan& plan) {
          plant->PostPlan(i, plan);
        });
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
  Rng net_rng(base.seed + kNetSeedOffset);
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
  // Each arrival is admitted and pumped at its own time: at quantum 1 the
  // engine sees every tuple at its arrival with the shedder's same draws.
  size_t g = 0;  // cluster-wide shard index
  for (const auto& node_ptr : nodes) {
    SimNode* node = node_ptr.get();
    for (size_t i = 0; i < node->plant.size(); ++i) {
      RtEngine* engine = node->plant.engine(i);
      Shedder* shedder = node->plant.shedder(i);
      sources[g++].Start(&sim, [node, engine, shedder](const Tuple& t) {
        // A dead node's producers write into a closed socket: the tuples
        // vanish before any counter on the node side sees them.
        if (node->dead) return;
        AdmitToShard(engine, shedder, &node->mu, /*local_source=*/0, &t, 1);
        engine->Pump(t.arrival_time);
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
      node->plant.Pump(t);
      node->plant.Snapshot(t, &samples);
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
  // The final pump, as a socket node's worker runs one at shutdown.
  for (const auto& node : nodes) node->plant.Pump(base.duration);
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

  RtShardSummary totals;
  for (const auto& node : nodes) {
    const RtShardSummary t = node->plant.Totals();
    result.nodes.push_back({.node_id = node->id,
                            .killed = node->dead,
                            .offered = t.offered,
                            .entry_shed = t.entry_shed,
                            .ring_dropped = t.ring_dropped,
                            .queue_shed = t.queue_shed,
                            .departed = t.departed,
                            .final_alpha = node->agent->last_alpha()});
    totals.offered += t.offered;
    totals.entry_shed += t.entry_shed;
    totals.ring_dropped += t.ring_dropped;
    totals.queue_shed += t.queue_shed;
  }
  result.summary = qos.Summarize(totals.offered, totals.entry_shed,
                                 totals.ring_dropped, totals.queue_shed);
  return result;
}

}  // namespace ctrlshed
