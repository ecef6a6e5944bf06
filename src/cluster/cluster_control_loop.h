#ifndef CTRLSHED_CLUSTER_CLUSTER_CONTROL_LOOP_H_
#define CTRLSHED_CLUSTER_CLUSTER_CONTROL_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster_monitor.h"
#include "cluster/wire.h"
#include "control/ctrl_controller.h"
#include "core/period_pipeline.h"
#include "metrics/recorder.h"

namespace ctrlshed {

struct ClusterControlLoopOptions {
  /// Model constant c (seconds); must match the nodes' query networks.
  double nominal_entry_cost = 0.0;
  double target_delay = 2.0;
  ClusterMonitorOptions monitor;
  /// The paper's CTRL controller drives the aggregate plant; its headroom
  /// field is overwritten from cluster membership at every change.
  CtrlOptions ctrl;
  /// Stamp queue_shed / cost_aware plan flags on every actuation command:
  /// the nodes then build in-network-enabled ActuationPlans (see
  /// control/actuation_plan.h) instead of entry-only ones.
  bool queue_shed = false;
  bool cost_aware = false;
};

/// One fanned-out command: deliver `act` to node `node_id`.
struct NodeCommand {
  uint32_t node_id = 0;
  ClusterActuation act;
};

/// The controller-side half of the cluster loop, transport-agnostic (the
/// sim harness and the socket runner both drive it): aggregate the node
/// reports into one plant (ClusterMonitor), run the unchanged Eq. (10)
/// controller against it, and fan v(k) back out proportionally to
/// per-node offered load — the same ProportionalShares arithmetic RtLoop
/// uses across shards. Each node is one PeriodPipeline slice whose
/// delivery completes by ack.
///
/// Anti-windup across the wire: the realized rate arrives in acks one
/// network round-trip later. A period's record is finalized — acks folded
/// through the pipeline's ActuationFold, realized actuation notified,
/// period published — either when every active node acked (the zero-delay
/// sim hits this before the next tick, which preserves the single-process
/// DesiredRate/NotifyActuation interleaving exactly) or at the next Tick,
/// where nodes that have not acked are assumed to have applied their full
/// slice (missing data must not look like saturation).
///
/// Not thread-safe: the caller serializes On*/Tick (the socket runner
/// holds a mutex; the sim is single-threaded).
class ClusterControlLoop {
 public:
  using RecordCallback = std::function<void(const PeriodRecord&)>;

  explicit ClusterControlLoop(ClusterControlLoopOptions options);

  /// Emits each finalized period row (telemetry timeline hook).
  void SetRecordCallback(RecordCallback cb) { on_record_ = std::move(cb); }

  /// Federation sink: when set, every report carrying a piggybacked
  /// metrics snapshot is folded into this registry under node="<id>"
  /// labels (see FoldMetricsSnapshot). Observability only — the snapshot
  /// never reaches the monitor or the control law, which is what keeps
  /// the one-node zero-delay cluster byte-identical to the local loop.
  /// The loop's own site counters and health gauges land there too.
  void SetMetricsSink(MetricsRegistry* sink);

  void OnHello(const NodeHello& h, SimTime recv_now);
  void OnReport(const NodeStatsReport& r, SimTime recv_now);
  void OnAck(const ActuationAck& a);

  /// Period boundary at controller-side time `now`. Returns the commands
  /// to deliver (empty when no node is active — nodes then keep shedding
  /// at their last configuration).
  std::vector<NodeCommand> Tick(SimTime now);

  /// Finalizes a period still waiting on acks (call once after the run).
  void Flush();

  void SetTargetDelay(double yd);

  const ClusterMonitor& monitor() const { return monitor_; }
  const Recorder& recorder() const { return pipeline_.recorder(); }

  /// Current control-loop health verdict (see telemetry/health.h). The
  /// HealthMonitor is internally locked, but callers that want a verdict
  /// consistent with the maps should hold the same mutex that serializes
  /// On*/Tick (the socket runner prebuilds the JSON under it).
  HealthReport Health() const { return pipeline_.Health(); }

  /// The loop's flight recorder — the runner annotates transport-level
  /// events (decode rejects, connection drops) into the same ring.
  FlightRecorder* flight() { return pipeline_.flight(); }
  double target_delay() const { return yd_; }
  int ticks() const { return ticks_; }
  /// Ticks skipped because no node was active.
  int idle_ticks() const { return idle_ticks_; }
  /// Seq of the most recent non-idle tick (0 before the first) — the
  /// period id stamped on actuations and echoed back in report ctrl_seq.
  uint32_t seq() const { return seq_; }

 private:
  struct PendingPeriod {
    bool open = false;
    uint32_t seq = 0;
    PeriodRecord record;
    std::vector<uint32_t> node_ids;  // active set the commands went to
    std::vector<double> shares;
    std::vector<SliceActuation> slices;  // per node, from its ack
    std::vector<bool> acked;
    size_t acks = 0;
  };

  void Finalize();

  ClusterControlLoopOptions options_;
  ClusterMonitor monitor_;
  CtrlController controller_;
  PeriodPipeline pipeline_{"cluster", ActuationPlannerOptions{}};
  RecordCallback on_record_;

  MetricsRegistry* metrics_sink_ = nullptr;
  double yd_;
  uint32_t seq_ = 0;
  int ticks_ = 0;
  int idle_ticks_ = 0;
  PendingPeriod pending_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_CLUSTER_CLUSTER_CONTROL_LOOP_H_
