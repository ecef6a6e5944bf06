#ifndef CTRLSHED_CLUSTER_NODE_RUNNER_H_
#define CTRLSHED_CLUSTER_NODE_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "cluster/node_agent.h"
#include "metrics/histogram.h"
#include "rt/rt_runtime.h"
#include "runner/experiment.h"
#include "telemetry/health.h"

namespace ctrlshed {

/// Configuration of one `ctrlshed node` process: a sharded rt plant (the
/// RtPlantConfig knobs) whose tuples arrive over a TCP ingress listener
/// and whose control decisions arrive from a remote cluster controller.
struct ClusterNodeConfig : RtPlantConfig {
  /// Period, setpoint, headrooms, capacity, cost smoothing, seed,
  /// telemetry. The workload fields are unused — arrivals come from the
  /// network, not a local replay. `vary_cost` is honored locally (the
  /// Fig. 14 cost trace is a plant property, sampled on each worker's
  /// clock); in-network shedding needs no local flag — the controller's
  /// actuation commands carry the queue_shed/cost_aware plan flags.
  ExperimentConfig base;

  uint32_t node_id = 0;

  /// Tuple ingress listener; 0 picks an ephemeral port (see on_ready).
  int ingress_port = 0;
  std::string bind_address = "127.0.0.1";

  /// Control channel. A node that cannot reach the controller still runs:
  /// it serves ingress and sheds with whatever configuration its shedders
  /// last had (initially admit-everything), the designed degradation mode.
  std::string controller_host = "127.0.0.1";
  int controller_port = 0;
  double connect_timeout_wall = 5.0;

  /// Attach a compact metrics snapshot (counters/gauges/histogram
  /// quantiles) to every stats report so the controller can federate this
  /// node's registry under node="<id>" labels. Observability only: the
  /// controller never feeds piggybacked metrics into the control law.
  bool piggyback_metrics = true;

  /// Optional early-stop flag (e.g. a SIGINT handler's).
  const std::atomic<bool>* stop = nullptr;

  /// Called once the ingress listener is bound and the plant is running,
  /// with the bound ingress port — how tests and the smoke script learn an
  /// ephemeral port.
  std::function<void(int ingress_port)> on_ready;
};

struct ClusterNodeResult {
  // Plant accounting (summed over shards). Shed counters follow the
  // repo-wide scheme (docs/architecture.md "Shed accounting"): entry_shed
  // (gate drops) + ring_dropped (ingress overflow) + queue_shed
  // (in-network queue drops) are disjoint slices of the loss.
  uint64_t offered = 0;
  uint64_t entry_shed = 0;
  uint64_t ring_dropped = 0;
  uint64_t queue_shed = 0;
  uint64_t departed = 0;
  double final_alpha = 0.0;

  // Ingress accounting.
  uint64_t ingress_connections = 0;
  uint64_t ingress_frames = 0;
  /// Well-formed frames whose payload failed the hardened tuple decode
  /// (also exported as the net.ingress.rejected counter).
  uint64_t ingress_rejected = 0;
  /// Streams dropped for framing corruption (bad magic/length).
  uint64_t corrupt_streams = 0;
  /// Ingress polls that delivered at least one frame (the
  /// net.ingress.wakeups counter); ingress_frames / ingress_wakeups is
  /// the frames each wake carried.
  uint64_t ingress_wakeups = 0;

  // Control-channel accounting.
  bool controller_connected = false;
  uint64_t reports_sent = 0;
  uint64_t actuations_applied = 0;
  /// Malformed control frames (wrong type or failed decode).
  uint64_t control_rejected = 0;

  /// Wall seconds between worker pumps, merged over all shards — the
  /// fleet-telemetry bench gates piggybacking overhead on its mean.
  LatencyHistogram pump_intervals{1e-6, 1e3, 1.08};

  double wall_seconds = 0.0;
  int ingress_port = -1;
  int telemetry_port = -1;
  bool interrupted = false;
  HealthReport health;  ///< Node-local health verdict at shutdown.
};

/// Runs one cluster node for base.duration trace seconds: the W-shard
/// RtPlant (BuildRtPlant) fed by the TCP tuple ingress through
/// AdmitToShard, a NodeAgent ticking every period (stats report upstream),
/// and remote actuations applied to the entry shedders. Blocks until the
/// run completes. CS_CHECKs ExperimentConfigError(base) and RtPlantError
/// on the plant knobs; CLIs validate with both first and exit 2.
ClusterNodeResult RunClusterNode(const ClusterNodeConfig& config);

/// The agent options node `node_id` of a `base` run uses (socket runner
/// and sim).
NodeAgentOptions NodeAgentOptionsFor(const ExperimentConfig& base,
                                     uint32_t node_id);

}  // namespace ctrlshed

#endif  // CTRLSHED_CLUSTER_NODE_RUNNER_H_
