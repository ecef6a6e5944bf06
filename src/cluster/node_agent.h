#ifndef CTRLSHED_CLUSTER_NODE_AGENT_H_
#define CTRLSHED_CLUSTER_NODE_AGENT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/wire.h"
#include "control/actuation_plan.h"
#include "core/period_pipeline.h"
#include "rt/rt_monitor.h"
#include "shedding/shedder.h"

namespace ctrlshed {

struct NodeAgentOptions {
  uint32_t node_id = 0;
  double target_delay = 2.0;   ///< Initial yd until an actuation arrives.
  RtMonitorOptions monitor;    ///< Same options the node's rt loop uses.
};

/// The node-side half of the cluster control loop, transport-agnostic so
/// the sim harness and the socket runner share it verbatim.
///
/// Tick() is RtLoop::ControlTick's measurement half: fold the shard
/// snapshots through the node's own RtMonitor and emit the upstream stats
/// report (the monitor's exact PeriodDeltas plus cumulative context).
/// Apply() is the actuation half: the received v(k) runs through the same
/// PeriodPipeline fan-out as RtLoop's, one slice per shard, which is what
/// makes the nodes=1/delay=0 cluster identical to the single-process
/// sharded loop.
///
/// Not thread-safe: the caller serializes Tick/Apply against each other
/// and against the admission path's shedder use (the socket runner holds
/// one plant mutex; the sim is single-threaded).
class NodeAgent {
 public:
  /// `shedders` has one entry per shard, in shard order; pointers must
  /// outlive the agent.
  NodeAgent(double nominal_entry_cost, std::vector<Shedder*> shedders,
            NodeAgentOptions options);

  /// Period boundary: one snapshot per shard, all at the same trace time.
  NodeStatsReport Tick(const std::vector<RtSample>& shards);

  /// Applies a received command to the entry shedders. Safe to call
  /// before the first Tick (nothing to fan out yet: acks applied = 0).
  /// When the command carries queue_shed, each shard's in-network budget
  /// is handed to the budget poster (below) before the entry shedder sees
  /// the plan, and the ack reports the planned victims.
  ActuationAck Apply(const ClusterActuation& a);

  /// Shard-budget delivery seam for in-network shedding. The runner owns
  /// how a budget reaches shard `i`'s engine; both the socket runner and
  /// the cluster sim post it through the RtSharedStats plan handshake, and
  /// the shard's following pumps drain it. Called from Apply, once per
  /// shard, only for queue_shed commands.
  using BudgetPoster =
      std::function<void(size_t shard, const ActuationPlan& plan)>;
  void SetBudgetPoster(BudgetPoster poster) {
    budget_poster_ = std::move(poster);
  }

  const RtMonitor& monitor() const { return monitor_; }

  /// Current node-local health verdict (see telemetry/health.h).
  /// Thread-safe against the Tick/Apply thread.
  HealthReport Health() const { return pipeline_.Health(); }

  /// The agent's flight recorder — the runner annotates transport-level
  /// events (decode rejects, controller drops) into the same ring.
  FlightRecorder* flight() { return pipeline_.flight(); }

  double last_alpha() const { return period_.alpha; }

  /// The hello this node announces itself with.
  NodeHello Hello() const;

 private:
  NodeAgentOptions options_;
  double nominal_entry_cost_;
  std::vector<Shedder*> shedders_;
  RtMonitor monitor_;
  BudgetPoster budget_poster_;

  double target_delay_;
  uint32_t seq_ = 0;
  uint32_t ctrl_seq_ = 0;
  bool has_measurement_ = false;
  /// The last sampled measurement with the last command applied to it: v
  /// is the commanded rate (the node does not run the control law), α and
  /// site what its shedders realized.
  PeriodRecord period_;
  PeriodPipeline pipeline_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_CLUSTER_NODE_AGENT_H_
