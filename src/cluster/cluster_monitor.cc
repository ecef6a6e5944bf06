#include "cluster/cluster_monitor.h"

#include "common/macros.h"

namespace ctrlshed {

namespace {
PeriodMathOptions ToMathOptions(const ClusterMonitorOptions& o) {
  PeriodMathOptions mo;
  mo.period = o.period;
  // Placeholder plant until the first node is active; Sample re-targets
  // via SetHeadroom before the first measurement is formed.
  mo.headroom = 0.97;
  mo.max_headroom = 1.0;
  mo.cost_ewma = o.cost_ewma;
  mo.adapt_headroom = o.adapt_headroom;
  mo.headroom_ewma = o.headroom_ewma;
  return mo;
}
}  // namespace

ClusterMonitor::ClusterMonitor(double nominal_entry_cost,
                               ClusterMonitorOptions options)
    : options_(options),
      fold_(nominal_entry_cost, ToMathOptions(options)) {
  CS_CHECK_MSG(options_.period > 0.0, "period must be positive");
  CS_CHECK_MSG(options_.stale_periods >= 1, "stale_periods must be >= 1");
}

ClusterMonitor::NodeState* ClusterMonitor::FindMutable(uint32_t id) {
  for (NodeState& n : nodes_) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

const ClusterMonitor::NodeState* ClusterMonitor::Find(uint32_t id) const {
  for (const NodeState& n : nodes_) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

void ClusterMonitor::OnHello(const NodeHello& h, SimTime recv_now) {
  NodeState* n = FindMutable(h.node_id);
  if (n == nullptr) {
    nodes_.emplace_back();
    n = &nodes_.back();
    n->id = h.node_id;
    if (on_transition_) on_transition_("node_join", h.node_id);
  }
  n->workers = h.workers;
  n->headroom = h.headroom;
  n->last_seen = recv_now;
}

void ClusterMonitor::OnReport(const NodeStatsReport& r, SimTime recv_now) {
  NodeState* n = FindMutable(r.node_id);
  // Reports from unknown nodes (hello lost or not yet processed) register
  // the node with zero workers; it stays out of the aggregate until a
  // hello fills in its plant size.
  if (n == nullptr) {
    nodes_.emplace_back();
    n = &nodes_.back();
    n->id = r.node_id;
  }
  if (n->active) {
    // Accumulate: with network delay several reports may land between two
    // controller boundaries and each is one period of real counters.
    n->pending.now = r.deltas.now;
    n->pending.offered += r.deltas.offered;
    n->pending.admitted += r.deltas.admitted;
    n->pending.drained_base_load += r.deltas.drained_base_load;
    n->pending.busy_seconds += r.deltas.busy_seconds;
    n->pending.delay_sum += r.deltas.delay_sum;
    n->pending.delay_count += r.deltas.delay_count;
    n->pending.queue = r.deltas.queue;
  } else {
    // (Re)joining: replace, so at most one period of backlog enters the
    // aggregate at readmission.
    n->pending = r.deltas;
  }
  n->ever_reported = true;
  n->last_seen = recv_now;
  n->last_seq = r.seq;
  n->alpha = r.alpha;
  // Each report carries one period's realized deltas — exactly the
  // drained/busy ratio the per-node H_hat estimate needs (report-only).
  n->h_hat_tracker.Update(r.deltas.drained_base_load, r.deltas.busy_seconds);
  n->offered_total = r.offered_total;
  n->entry_shed_total = r.entry_shed_total;
  n->ring_dropped_total = r.ring_dropped_total;
  n->departed_total = r.departed_total;
}

bool ClusterMonitor::Sample(SimTime now, double target_delay,
                            PeriodMeasurement* m) {
  // Refresh the active set: reporting, plant-sized, and fresh enough.
  const double stale_age =
      static_cast<double>(options_.stale_periods) * options_.period;
  active_ids_.clear();
  for (NodeState& n : nodes_) {
    const bool fresh =
        n.ever_reported && n.workers >= 1 && (now - n.last_seen) <= stale_age;
    if (n.active && !fresh) {
      // Going stale: its buffered deltas describe a plant we no longer
      // trust; drop them so a later readmission starts clean.
      n.pending = PeriodDeltas{};
      if (on_transition_) on_transition_("node_stale", n.id);
    }
    if (!n.active && fresh && n.ever_active && on_transition_) {
      on_transition_("node_readmit", n.id);
    }
    n.active = fresh;
    if (fresh) n.ever_active = true;
    if (fresh) active_ids_.push_back(n.id);
  }
  if (active_ids_.empty()) {
    headroom_changed_ = false;
    return false;
  }

  double headroom = 0.0;
  double max_headroom = 0.0;
  for (const NodeState& n : nodes_) {
    if (!n.active) continue;
    headroom += static_cast<double>(n.workers) * n.headroom;
    max_headroom += static_cast<double>(n.workers);
  }
  headroom_changed_ = headroom != effective_headroom_;
  if (headroom_changed_) {
    fold_.math().SetHeadroom(headroom, max_headroom);
    effective_headroom_ = headroom;
  }

  // Fold the active nodes in registration order — a fixed order keeps the
  // floating-point sums deterministic run to run.
  fold_.Begin(now);
  for (NodeState& n : nodes_) {
    if (!n.active) continue;
    fold_.Add(n.pending);
    n.pending = PeriodDeltas{};
  }
  *m = fold_.Sample(target_delay);
  return true;
}

int ClusterMonitor::stale_count() const {
  int stale = 0;
  for (const NodeState& n : nodes_) {
    if (n.ever_active && !n.active) ++stale;
  }
  return stale;
}

}  // namespace ctrlshed
