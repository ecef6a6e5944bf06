#include "control/actuation_plan.h"

#include <algorithm>

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

ActuationPlan ActuationPlanner::BuildPlan(double v,
                                          const PeriodMeasurement& m) const {
  ActuationPlan plan;
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
  return plan;
}

}  // namespace ctrlshed
