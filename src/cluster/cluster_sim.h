#ifndef CTRLSHED_CLUSTER_CLUSTER_SIM_H_
#define CTRLSHED_CLUSTER_CLUSTER_SIM_H_

#include <cstdint>
#include <vector>

#include "metrics/qos_metrics.h"
#include "metrics/recorder.h"
#include "runner/experiment.h"
#include "telemetry/metrics_registry.h"

namespace ctrlshed {

/// Deterministic multi-node cluster on the discrete-event substrate: N
/// nodes, each the socket node's plant (BuildRtPlant's W shards, admitted
/// through AdmitToShard, pumped by simulation events instead of worker
/// threads), a ClusterControlLoop, and a modeled message-passing network
/// (delay + Bernoulli loss, seeded) instead of sockets. Every event —
/// arrivals, node ticks, message deliveries, controller ticks — lives on
/// one event heap with FIFO tie-breaking, so runs are bit-reproducible.
///
/// Zero-delay messages are delivered INLINE (a direct call, not a
/// scheduled event): a report sent at a period boundary is then visible
/// to the controller tick at that same boundary, exactly like the
/// single-process loop where sampling and actuation are one call chain.
/// That, plus nodes ticking before the controller at shared timestamps,
/// is what makes nodes=1/delay=0/loss=0 arithmetically identical to
/// RtLoop on the same plant driven on virtual time.
struct ClusterSimConfig {
  /// Workload, duration, period, setpoint, headrooms, gains, seed. The
  /// cluster path supports method=kCtrl with last-value prediction and no
  /// setpoint schedule; the Fig. 14 cost trace (`vary_cost`) and the
  /// in-network queue shedder (`use_queue_shedder` /
  /// `cost_aware_shedding`, each budget planned per-node by the NodeAgent)
  /// ride along. Injected estimation noise stays sim-loop-only.
  ExperimentConfig base;

  int nodes = 1;
  int workers_per_node = 1;

  // --- Network model (trace seconds / probabilities) --------------------
  double report_delay = 0.0;    ///< node -> controller (reports and acks).
  double command_delay = 0.0;   ///< controller -> node.
  double loss = 0.0;            ///< Per-message loss probability.

  /// Stale-node policy M: excluded after missing this many periods.
  int stale_periods = 3;

  /// Piggyback a metrics snapshot (built from each node's cumulative
  /// counters) on every report, as the socket nodes do. On by default to
  /// prove the sim's EXPECT_EQ identity with the single-process loop
  /// survives federation: the snapshot never touches the plant math.
  bool piggyback_metrics = true;

  /// Optional federation sink: when set, piggybacked snapshots are folded
  /// here under node="<id>" labels, so tests can assert on the controller
  /// registry the socket runner would expose on /metrics. Not owned.
  MetricsRegistry* fleet_metrics = nullptr;

  /// When > 0, node `kill_node_id` stops ticking/reporting (and its
  /// producers' tuples vanish) at this trace time — the deterministic
  /// twin of kill -9 on a node process.
  double kill_node_at = 0.0;
  uint32_t kill_node_id = 0;
};

/// Shed counters follow the repo-wide scheme (docs/architecture.md "Shed
/// accounting").
struct ClusterSimNodeResult {
  uint32_t node_id = 0;
  bool killed = false;
  uint64_t offered = 0;
  uint64_t entry_shed = 0;
  uint64_t ring_dropped = 0;
  uint64_t queue_shed = 0;
  uint64_t departed = 0;
  double final_alpha = 0.0;
};

struct ClusterSimResult {
  Recorder recorder;  ///< The controller's per-period rows.
  std::vector<ClusterSimNodeResult> nodes;
  QosSummary summary;  ///< Aggregate over every node's departures.
  double nominal_cost = 0.0;
  uint64_t messages_sent = 0;
  uint64_t messages_lost = 0;
  int ticks = 0;
  int idle_ticks = 0;
  int final_active_nodes = 0;
};

ClusterSimResult RunClusterSim(const ClusterSimConfig& config);

}  // namespace ctrlshed

#endif  // CTRLSHED_CLUSTER_CLUSTER_SIM_H_
