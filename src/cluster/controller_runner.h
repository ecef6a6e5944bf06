#ifndef CTRLSHED_CLUSTER_CONTROLLER_RUNNER_H_
#define CTRLSHED_CLUSTER_CONTROLLER_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "cluster/cluster_control_loop.h"
#include "metrics/recorder.h"
#include "runner/experiment.h"
#include "telemetry/health.h"

namespace ctrlshed {

/// Configuration of the `ctrlshed cluster` controller process: one TCP
/// control channel that nodes connect to, the aggregate feedback loop
/// ticking once per period, and commands fanned back out.
struct ClusterControllerConfig {
  /// Period, setpoint, gains, feedback signal, anti-windup, cost
  /// smoothing, headrooms/capacity (for the model constant c), duration,
  /// telemetry. `use_queue_shedder`/`cost_aware_shedding` stamp the plan
  /// flags on every actuation command (the nodes do the in-network work).
  /// Workload fields are unused — the plant is remote.
  ExperimentConfig base;

  /// Control-channel listen port; 0 picks an ephemeral one (see on_ready).
  int port = 0;
  std::string bind_address = "127.0.0.1";

  /// Stale-node exclusion threshold M (reporting periods).
  int stale_periods = 3;

  /// Hold the first control tick until this many nodes said hello (or the
  /// wait times out) so a scripted bring-up isn't racing the controller.
  int min_nodes = 0;
  double min_nodes_timeout_wall = 10.0;

  double time_compression = 20.0;

  const std::atomic<bool>* stop = nullptr;

  /// Called once the control channel is bound, with the bound port.
  std::function<void(int port)> on_ready;
};

struct ClusterControllerResult {
  Recorder recorder;  ///< Per-period aggregate closed-loop trace.
  int ticks = 0;
  int idle_ticks = 0;       ///< Boundaries with no active node.
  int nodes_seen = 0;       ///< Distinct nodes that ever said hello.
  int final_active = 0;     ///< Active nodes at the last boundary.
  int total_workers = 0;    ///< Sum of worker counts over nodes seen.
  uint64_t hellos = 0;
  uint64_t reports = 0;
  uint64_t acks = 0;
  /// Malformed control frames (unexpected type or failed decode).
  uint64_t rejected = 0;
  uint64_t connections = 0;
  uint64_t corrupt_streams = 0;
  double wall_seconds = 0.0;
  int port = -1;
  int telemetry_port = -1;
  bool interrupted = false;
  HealthReport health;  ///< Controller health verdict at shutdown.
};

/// The loop options a cluster controller of `base` runs with, excluding
/// nodes after `stale_periods` silent periods (socket runner and sim).
ClusterControlLoopOptions ClusterLoopOptions(const ExperimentConfig& base,
                                             int stale_periods);

/// Runs the cluster controller for base.duration trace seconds. Blocks
/// until the run completes.
ClusterControllerResult RunClusterController(
    const ClusterControllerConfig& config);

}  // namespace ctrlshed

#endif  // CTRLSHED_CLUSTER_CONTROLLER_RUNNER_H_
