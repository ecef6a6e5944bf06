#include "cluster/node_agent.h"

#include <utility>

#include "common/macros.h"

namespace ctrlshed {

NodeAgent::NodeAgent(double nominal_entry_cost, std::vector<Shedder*> shedders,
                     NodeAgentOptions options)
    : options_(options),
      nominal_entry_cost_(nominal_entry_cost),
      shedders_(std::move(shedders)),
      monitor_(nominal_entry_cost, static_cast<int>(shedders_.size()),
               options.monitor),
      target_delay_(options.target_delay),
      pipeline_("node", ActuationPlannerOptions{nominal_entry_cost},
                /*telemetry=*/nullptr, /*keep_rows=*/false) {
  CS_CHECK_MSG(!shedders_.empty(), "need one shedder per shard");
  for (Shedder* s : shedders_) CS_CHECK(s != nullptr);
  CS_CHECK_MSG(target_delay_ > 0.0, "target delay must be positive");
}

NodeHello NodeAgent::Hello() const {
  NodeHello h;
  h.node_id = options_.node_id;
  h.workers = static_cast<uint32_t>(shedders_.size());
  h.headroom = options_.monitor.headroom;
  h.nominal_cost = nominal_entry_cost_;
  h.period = options_.monitor.period;
  return h;
}

NodeStatsReport NodeAgent::Tick(const std::vector<RtSample>& shards) {
  period_.m = monitor_.Sample(shards, target_delay_);
  period_.h_hat = monitor_.h_hat();
  has_measurement_ = true;
  // Node-local observability: the same per-period ring + health the
  // single-process loops keep.
  pipeline_.Publish(period_, options_.monitor.headroom);

  NodeStatsReport r;
  r.node_id = options_.node_id;
  r.seq = ++seq_;
  r.ctrl_seq = ctrl_seq_;
  r.deltas = monitor_.last_deltas();
  r.alpha = period_.alpha;
  for (const RtSample& s : shards) {
    r.offered_total += s.offered;
    r.entry_shed_total += s.entry_shed;
    r.ring_dropped_total += s.ring_dropped;
    r.queue_shed_total += s.queue_shed;
    r.departed_total += s.departed;
  }
  return r;
}

ActuationAck NodeAgent::Apply(const ClusterActuation& a) {
  target_delay_ = a.target_delay;
  ctrl_seq_ = a.seq;
  period_.v = a.v;

  ActuationAck ack;
  ack.node_id = options_.node_id;
  ack.seq = a.seq;
  // Before the first Tick nothing was sampled, so there is no load to
  // slice; the shedders stay wide open and the ack reports the command as
  // applied (the anti-windup hook must not see a phantom saturation).
  ack.applied = a.v;
  ack.alpha = period_.alpha;
  if (!has_measurement_) return ack;

  // The same fan-out as RtLoop's, over the last sampled measurement. With
  // queue_shed off the plans are entry-only and ApplyPlan degrades to
  // Configure, bit for bit the pre-plan agent.
  pipeline_.SetPlanner(ActuationPlannerOptions{
      nominal_entry_cost_, /*allow_in_network=*/a.queue_shed, a.cost_aware});
  const ActuationFold fold = pipeline_.Actuate(
      &period_, monitor_.shard_fin(), monitor_.shard_queues(),
      [this, &a](size_t i, const ActuationPlan& plan,
                 const PeriodMeasurement& mi) {
        if (a.queue_shed && budget_poster_) budget_poster_(i, plan);
        return ApplySlice(*shedders_[i], plan, mi);
      });
  ack.applied = fold.applied;
  ack.alpha = fold.alpha;
  ack.queue_shed = fold.queue_target;
  return ack;
}

}  // namespace ctrlshed
