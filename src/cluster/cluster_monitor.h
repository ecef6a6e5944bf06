#ifndef CTRLSHED_CLUSTER_CLUSTER_MONITOR_H_
#define CTRLSHED_CLUSTER_CLUSTER_MONITOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/wire.h"
#include "control/period_math.h"

namespace ctrlshed {

struct ClusterMonitorOptions {
  SimTime period = 1.0;     ///< Control period T, trace seconds.
  double cost_ewma = 1.0;
  bool adapt_headroom = false;
  double headroom_ewma = 0.2;
  /// A node whose last report is older than this many periods at a Sample
  /// boundary is excluded from the aggregate (its entry shedders keep the
  /// last configuration they received, i.e. local shedding continues).
  int stale_periods = 3;
};

/// The controller-side aggregation: folds per-node stats reports into one
/// virtual plant through the same SliceFold RtMonitor folds shards with —
/// the effective headroom is Σ over active nodes of N_i·H_i, the nodes'
/// deltas are summed, and the shared PeriodMath produces the Eq. (11)
/// measurement. Because nodes ship the very PeriodDeltas their own
/// monitors consumed, a one-node zero-delay cluster reproduces the
/// single-process arithmetic bit for bit.
///
/// Membership: nodes announce themselves with a hello and stay known
/// forever; the ACTIVE set (what the plant sums over) is recomputed at
/// every Sample from report recency. A stale node's buffered deltas are
/// discarded (its plant state is unknown); when its reports resume it
/// carries at most one period of backlog back in, so readmission cannot
/// spike the aggregate rates.
///
/// Not thread-safe: owned by whichever thread runs the controller.
class ClusterMonitor {
 public:
  struct NodeState {
    uint32_t id = 0;
    uint32_t workers = 0;
    double headroom = 0.0;       ///< Per-worker H.
    bool active = false;
    bool ever_reported = false;
    bool ever_active = false;    ///< Distinguishes join from readmit.
    SimTime last_seen = 0.0;     ///< Receive-side clock of the last report.
    uint32_t last_seq = 0;
    PeriodDeltas pending;        ///< Deltas accumulated since last Sample.
    double alpha = 0.0;          ///< Last reported drop probability.
    /// Measured per-worker headroom of this node (base load drained per
    /// busy second across its report deltas). Report-only; NaN until the
    /// node's first busy report.
    HeadroomTracker h_hat_tracker;
    uint64_t offered_total = 0;
    uint64_t entry_shed_total = 0;
    uint64_t ring_dropped_total = 0;
    uint64_t departed_total = 0;
  };

  ClusterMonitor(double nominal_entry_cost, ClusterMonitorOptions options);

  /// Membership-transition hook: called with "node_join" (first hello),
  /// "node_stale" (aged out of the active set at a Sample boundary), or
  /// "node_readmit" (re-entered it), plus the node id. Feeds the owning
  /// loop's flight recorder; called on the thread driving OnHello/Sample.
  void SetTransitionCallback(
      std::function<void(const char* what, uint32_t node_id)> cb) {
    on_transition_ = std::move(cb);
  }

  /// Registers or refreshes a node (re-hello after reconnect is fine).
  void OnHello(const NodeHello& h, SimTime recv_now);

  /// Buffers one period's deltas from a node. `recv_now` is the
  /// controller-side clock (staleness is judged on receive times — node
  /// clocks are not comparable across processes).
  void OnReport(const NodeStatsReport& r, SimTime recv_now);

  /// Period boundary: refreshes the active set, re-targets the plant
  /// headroom on membership change, folds the active nodes' pending
  /// deltas and runs the shared math. Returns false (and leaves *m
  /// untouched) when no node is active — there is no plant to measure.
  bool Sample(SimTime now, double target_delay, PeriodMeasurement* m);

  // --- Last Sample's per-node decomposition (registration order) --------
  const std::vector<uint32_t>& active_ids() const { return active_ids_; }
  const std::vector<double>& node_fin() const { return fold_.fin(); }
  const std::vector<double>& node_queues() const { return fold_.queue(); }

  /// Σ over active nodes of N_i·H_i after the last Sample (0 before).
  double effective_headroom() const { return effective_headroom_; }
  /// True when the last Sample changed the plant size (the control loop
  /// re-gains its controller on this).
  bool headroom_changed() const { return headroom_changed_; }

  int known_count() const { return static_cast<int>(nodes_.size()); }
  int active_count() const { return static_cast<int>(active_ids_.size()); }
  /// Nodes that once fed the aggregate but have aged out of the active
  /// set (as of the last Sample) — the health monitor's stale_node input.
  int stale_count() const;
  /// Aggregate measured per-worker headroom: Σ drained / Σ busy over the
  /// active nodes' folded deltas, EWMA-smoothed. NaN before the first
  /// busy Sample.
  double h_hat() const { return fold_.h_hat(); }
  const std::vector<NodeState>& nodes() const { return nodes_; }
  const NodeState* Find(uint32_t id) const;

  double CostEstimate() const { return fold_.math().CostEstimate(); }
  double HeadroomEstimate() const { return fold_.math().HeadroomEstimate(); }
  const ClusterMonitorOptions& options() const { return options_; }

 private:
  NodeState* FindMutable(uint32_t id);

  ClusterMonitorOptions options_;
  SliceFold fold_;

  std::vector<NodeState> nodes_;  // registration order, never shrinks
  double effective_headroom_ = 0.0;
  bool headroom_changed_ = false;
  std::function<void(const char* what, uint32_t node_id)> on_transition_;

  std::vector<uint32_t> active_ids_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_CLUSTER_CLUSTER_MONITOR_H_
