#ifndef CTRLSHED_CLUSTER_WIRE_H_
#define CTRLSHED_CLUSTER_WIRE_H_

#include <cstdint>
#include <string>

#include "control/period_math.h"
#include "net/frame.h"
#include "telemetry/fleet_metrics.h"

namespace ctrlshed {

/// Control-plane messages exchanged between cluster nodes and the
/// controller. Stats travel as per-period counter DELTAS (the exact
/// PeriodDeltas the node's own monitor consumed), not cumulative totals:
/// summing deltas upstream reproduces the single-process aggregation
/// arithmetic bit-for-bit, and a node that leaves and rejoins never makes
/// a counter appear to run backwards.

/// node -> controller, once per connection: membership announcement.
struct NodeHello {
  uint32_t node_id = 0;
  uint32_t workers = 0;        ///< Shard count N_i of this node.
  double headroom = 0.0;       ///< Per-worker H estimate.
  double nominal_cost = 0.0;   ///< Model constant c (must match the plan).
  double period = 0.0;         ///< Control period T the node ticks at.
  /// Node trace-clock timestamp at send (us since the node tracer's
  /// epoch); 0 when the node has no tracer. The controller echoes it in
  /// HelloAck so the node can estimate the trace-clock offset for
  /// cross-process trace merging.
  uint64_t trace_clock_us = 0;
};

/// controller -> node, in response to a hello: clock-sync exchange for
/// trace correlation. `echo_t0_us` is the hello's trace_clock_us sent
/// back; `ctrl_clock_us` is the controller's trace clock when the hello
/// was handled (0 when the controller has no tracer). The node computes
/// offset = ctrl_clock_us - (t0 + t_receive)/2 — classic NTP-style
/// midpoint — and stamps it into its trace as a `clock_sync` instant.
struct HelloAck {
  uint32_t node_id = 0;
  uint64_t echo_t0_us = 0;
  uint64_t ctrl_clock_us = 0;
};

/// node -> controller, once per control period.
struct NodeStatsReport {
  uint32_t node_id = 0;
  uint32_t seq = 0;            ///< Node-local period index k.
  /// Controller period seq of the last actuation this node applied
  /// (0 = none yet). Lets the controller-side span for a report carry the
  /// same correlation id as the node-side apply span.
  uint32_t ctrl_seq = 0;
  PeriodDeltas deltas;         ///< This period's counter deltas + queue.
  double alpha = 0.0;          ///< Blended entry-drop probability in force.
  // Cumulative context for the controller's status/summary display only —
  // never fed into the aggregate plant math. Shed counters follow the
  // repo-wide scheme (docs/architecture.md "Shed accounting"): entry gate
  // drops, ingress-ring overflow, and in-network queue drops are disjoint.
  uint64_t offered_total = 0;
  uint64_t entry_shed_total = 0;
  uint64_t ring_dropped_total = 0;
  uint64_t queue_shed_total = 0;
  uint64_t departed_total = 0;
  /// Federated metrics piggyback (see telemetry/fleet_metrics.h). Strictly
  /// observability: the controller folds it into its registry and NEVER
  /// feeds it into the aggregate plant math, which keeps the cluster sim
  /// EXPECT_EQ-identical with piggybacking on.
  bool has_metrics = false;
  MetricsWireSnapshot metrics;
};

/// controller -> node, once per control period: this node's slice of v(k).
/// The two plan flags travel on every command (encoded as one flags word)
/// so the node builds the SAME ActuationPlan the controller's policy asks
/// for without any out-of-band configuration channel.
struct ClusterActuation {
  uint32_t seq = 0;            ///< Controller period index.
  double v = 0.0;              ///< Admitted-rate command for this node.
  double target_delay = 0.0;   ///< Current setpoint yd.
  bool queue_shed = false;     ///< Build in-network-enabled plans.
  bool cost_aware = false;     ///< Victim policy for the in-network half.
};

/// node -> controller, in response to an actuation.
struct ActuationAck {
  uint32_t node_id = 0;
  uint32_t seq = 0;            ///< Echoes ClusterActuation::seq.
  double applied = 0.0;        ///< Rate the shedders could actually target.
  double alpha = 0.0;          ///< Share-blended drop probability after apply.
  /// Planned in-network victim tuples across the node's shards (the plans'
  /// summed queue_target). Planned, not realized: the workers drain the
  /// budget asynchronously; realized drops flow back cumulatively in
  /// NodeStatsReport::queue_shed_total.
  double queue_shed = 0.0;
};

// Encoders return complete frames (header included), ready to send.
std::string EncodeHelloFrame(const NodeHello& h);
std::string EncodeHelloAckFrame(const HelloAck& a);
std::string EncodeStatsReportFrame(const NodeStatsReport& r);
std::string EncodeActuationFrame(const ClusterActuation& a);
std::string EncodeAckFrame(const ActuationAck& a);

// Decoders take a frame payload of the matching type and reject size
// mismatches, trailing bytes, and non-finite floats (a NaN queue length or
// rate would poison the aggregate plant silently).
bool DecodeHello(const std::string& payload, NodeHello* out);
bool DecodeHelloAck(const std::string& payload, HelloAck* out);
bool DecodeStatsReport(const std::string& payload, NodeStatsReport* out);
bool DecodeActuation(const std::string& payload, ClusterActuation* out);
bool DecodeAck(const std::string& payload, ActuationAck* out);

}  // namespace ctrlshed

#endif  // CTRLSHED_CLUSTER_WIRE_H_
