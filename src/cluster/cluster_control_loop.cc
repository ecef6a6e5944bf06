#include "cluster/cluster_control_loop.h"

#include <cstdio>
#include <limits>
#include <utility>

#include "common/macros.h"

namespace ctrlshed {

ClusterControlLoop::ClusterControlLoop(ClusterControlLoopOptions options)
    : options_(options),
      monitor_(options.nominal_entry_cost, options.monitor),
      controller_(options.ctrl),
      yd_(options.target_delay) {
  CS_CHECK_MSG(yd_ > 0.0, "target delay must be positive");
  monitor_.SetTransitionCallback([this](const char* what, uint32_t node_id) {
    char detail[32];
    std::snprintf(detail, sizeof(detail), "node %u", node_id);
    pipeline_.flight()->RecordEvent(what, detail);
  });
}

void ClusterControlLoop::SetMetricsSink(MetricsRegistry* sink) {
  metrics_sink_ = sink;
  if (sink != nullptr) pipeline_.SetMetricsSink(sink);
}

void ClusterControlLoop::OnHello(const NodeHello& h, SimTime recv_now) {
  monitor_.OnHello(h, recv_now);
}

void ClusterControlLoop::OnReport(const NodeStatsReport& r, SimTime recv_now) {
  monitor_.OnReport(r, recv_now);
  if (metrics_sink_ != nullptr && r.has_metrics) {
    FoldMetricsSnapshot(r.node_id, r.metrics, metrics_sink_);
  }
}

void ClusterControlLoop::OnAck(const ActuationAck& a) {
  if (!pending_.open || a.seq != pending_.seq) return;
  for (size_t i = 0; i < pending_.node_ids.size(); ++i) {
    if (pending_.node_ids[i] != a.node_id || pending_.acked[i]) continue;
    pending_.acked[i] = true;
    pending_.slices[i] = SliceActuation{a.applied, a.alpha, a.queue_shed};
    ++pending_.acks;
    break;
  }
  // The zero-delay path finalizes here, before the next tick — preserving
  // the single-process DesiredRate -> NotifyActuation interleaving.
  if (pending_.acks == pending_.node_ids.size()) Finalize();
}

std::vector<NodeCommand> ClusterControlLoop::Tick(SimTime now) {
  ++ticks_;
  Finalize();  // a period still waiting on late/lost acks

  PeriodMeasurement m;
  const bool have_plant = monitor_.Sample(now, yd_, &m);
  // Staleness is (re)judged at every boundary, including idle ones — an
  // all-stale cluster must be able to go critical while no periods close.
  pipeline_.health()->SetStaleNodes(
      static_cast<uint64_t>(monitor_.stale_count()),
      static_cast<uint64_t>(monitor_.stale_count() + monitor_.active_count()));
  if (!have_plant) {
    ++idle_ticks_;
    return {};
  }
  if (monitor_.headroom_changed()) {
    controller_.SetHeadroom(monitor_.effective_headroom());
  }
  const double v = controller_.DesiredRate(m);

  const std::vector<uint32_t>& ids = monitor_.active_ids();

  pending_ = PendingPeriod{};
  pending_.open = true;
  pending_.seq = ++seq_;
  pending_.record.m = m;
  pending_.record.v = v;
  pending_.node_ids = ids;
  pending_.acked.assign(ids.size(), false);
  ProportionalShares(monitor_.node_fin(), &pending_.shares);
  // Per-node queue decomposition in the shard_q slot — the timeline/CSV
  // exports then work unchanged on a controller (empty at one node, like
  // the N = 1 rt loop, keeping those exports byte-identical).
  pending_.record.shard_q =
      ids.size() > 1 ? monitor_.node_queues() : std::vector<double>{};

  std::vector<NodeCommand> commands;
  commands.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const double v_i = v * pending_.shares[i];
    NodeCommand cmd;
    cmd.node_id = ids[i];
    cmd.act.seq = pending_.seq;
    cmd.act.v = v_i;
    cmd.act.target_delay = yd_;
    cmd.act.queue_shed = options_.queue_shed;
    cmd.act.cost_aware = options_.cost_aware;
    commands.push_back(cmd);

    // Until its ack lands, a node counts as having applied its whole
    // slice at its last reported alpha with no in-network victims: a lost
    // or late ack must neither masquerade as actuator saturation (or the
    // anti-windup would rewrite controller state on every dropped
    // message) nor fabricate in-network actuation.
    const ClusterMonitor::NodeState* n = monitor_.Find(ids[i]);
    pending_.slices.push_back(
        SliceActuation{v_i, n != nullptr ? n->alpha : 0.0, 0.0});
  }
  return commands;
}

void ClusterControlLoop::Finalize() {
  if (!pending_.open) return;
  pending_.open = false;
  ActuationFold fold;
  for (size_t i = 0; i < pending_.slices.size(); ++i) {
    fold.Add(pending_.shares[i], pending_.slices[i]);
  }
  controller_.NotifyActuation(fold.applied);
  PeriodRecord& rec = pending_.record;
  rec.alpha = fold.alpha;
  rec.site = fold.site();
  rec.queue_shed = fold.queue_target;
  rec.h_hat = monitor_.h_hat();
  // Configured headroom for the drift warning: the active fleet's mean
  // per-worker H (the aggregate H_hat is per-worker by construction).
  double active_workers = 0.0;
  double weighted_h = 0.0;
  for (const ClusterMonitor::NodeState& n : monitor_.nodes()) {
    if (!n.active) continue;
    active_workers += static_cast<double>(n.workers);
    weighted_h += static_cast<double>(n.workers) * n.headroom;
  }
  pipeline_.Publish(std::move(rec),
                    active_workers > 0.0
                        ? weighted_h / active_workers
                        : std::numeric_limits<double>::quiet_NaN());
  if (on_record_) on_record_(pipeline_.recorder().rows().back());
}

void ClusterControlLoop::Flush() { Finalize(); }

void ClusterControlLoop::SetTargetDelay(double yd) {
  CS_CHECK_MSG(yd > 0.0, "target delay must be positive");
  yd_ = yd;
}

}  // namespace ctrlshed
