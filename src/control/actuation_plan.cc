#include "control/actuation_plan.h"

#include <algorithm>
#include <numeric>

#include "engine/engine.h"
#include "engine/operator.h"
#include "engine/query_network.h"

namespace ctrlshed {

std::string_view ActuationSiteName(ActuationSite site) {
  switch (site) {
    case ActuationSite::kEntry:
      return "entry";
    case ActuationSite::kInNetwork:
      return "in_network";
    case ActuationSite::kSplit:
      return "split";
  }
  return "entry";
}

ActuationSite SiteFor(double queue_target, double alpha) {
  return queue_target > 0.0 ? (alpha > 0.0 ? ActuationSite::kSplit
                                           : ActuationSite::kInNetwork)
                            : ActuationSite::kEntry;
}

namespace {

// Decomposes the scalar budget over the reported queues: cost-aware planners
// fill victims in descending drain-cost order (ties to the lowest operator
// index, matching ShedFromQueues' first-max-wins scan); random planners
// spread proportionally to each queue's share of the backlog load.
void DecomposeBudget(const QueueFeedback& fb, double budget_load,
                     bool cost_aware, std::vector<QueueBudget>* out) {
  out->clear();
  if (budget_load <= 0.0 || fb.queues.empty()) return;
  if (cost_aware) {
    std::vector<size_t> order(fb.queues.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&fb](size_t a, size_t b) {
      return fb.queues[a].drain_cost > fb.queues[b].drain_cost;
    });
    double remaining = budget_load;
    for (size_t i : order) {
      if (remaining <= 0.0) break;
      const double take = std::min(remaining, fb.queues[i].queued_load);
      if (take <= 0.0) continue;
      out->push_back({fb.queues[i].op_index, take});
      remaining -= take;
    }
    return;
  }
  if (fb.total_queued_load <= 0.0) return;
  for (const QueueFeedbackEntry& q : fb.queues) {
    const double take = budget_load * (q.queued_load / fb.total_queued_load);
    if (take > 0.0) out->push_back({q.op_index, take});
  }
}

}  // namespace

ActuationPlan ActuationPlanner::BuildPlan(double v, const PeriodMeasurement& m,
                                          const QueueFeedback& fb) const {
  ActuationPlan plan;
  plan.k = m.k;
  plan.v = v;
  plan.cost_aware = options_.cost_aware;
  plan.in_network_enabled = options_.allow_in_network;

  if (!options_.allow_in_network) {
    // Entry-only: the classic Eq. 13 gate, expression-for-expression the
    // arithmetic EntryShedder::Configure has always used.
    plan.site = ActuationSite::kEntry;
    if (m.fin_forecast <= 0.0) {
      plan.entry_alpha = 0.0;
      plan.planned_applied = v;
    } else {
      plan.entry_alpha = std::clamp(1.0 - v / m.fin_forecast, 0.0, 1.0);
      plan.planned_applied = (1.0 - plan.entry_alpha) * m.fin_forecast;
    }
    return plan;
  }

  // In-network planning: identical expression order to the legacy
  // QueueShedder::Configure so executors that re-derive the entry remainder
  // from the actual queue removal stay bit-identical to the pre-plan loop.
  const double T = m.period;
  plan.to_shed = (m.fin_forecast - v) * T;
  if (plan.to_shed <= 0.0) {
    plan.site = ActuationSite::kEntry;
    plan.entry_alpha = 0.0;
    plan.planned_applied = v;
    return plan;
  }
  plan.incoming = m.fin_forecast * T;
  plan.queue_target =
      std::min(std::max(0.0, plan.to_shed - plan.incoming), m.queue);
  plan.queue_budget_load = plan.queue_target * options_.nominal_entry_cost;

  // Analytic entry half, assuming the budget is achieved. Executors with
  // direct queue access (sim) recompute from the actual removal; detached
  // executors (rt entry gate, cluster agents) apply these values as-is.
  const double remainder = plan.to_shed - plan.queue_target;
  plan.entry_alpha =
      (plan.incoming > 0.0) ? std::clamp(remainder / plan.incoming, 0.0, 1.0)
                            : 0.0;
  const double unachieved = std::max(0.0, remainder - plan.incoming);
  plan.planned_applied = v + unachieved / T;

  plan.site = SiteFor(plan.queue_target, plan.entry_alpha);
  DecomposeBudget(fb, plan.queue_budget_load, plan.cost_aware, &plan.budgets);
  return plan;
}

void CollectQueueFeedback(const Engine& engine, QueueFeedback* fb) {
  fb->queues.clear();
  fb->total_backlog_tuples = 0.0;
  fb->total_queued_load = 0.0;
  const QueryNetwork& net = engine.network();
  for (size_t i = 0; i < net.NumOperators(); ++i) {
    const OperatorBase* op = net.Operator(i);
    const size_t backlog = op->queue().size();
    if (backlog == 0) continue;
    const double drain_cost = net.RemainingCost(op);
    QueueFeedbackEntry entry;
    entry.op_index = static_cast<int>(i);
    entry.backlog_tuples = static_cast<double>(backlog);
    entry.queued_load = static_cast<double>(backlog) * drain_cost;
    entry.drain_cost = drain_cost;
    fb->total_backlog_tuples += entry.backlog_tuples;
    fb->total_queued_load += entry.queued_load;
    fb->queues.push_back(entry);
  }
}

}  // namespace ctrlshed
