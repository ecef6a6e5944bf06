#ifndef CTRLSHED_CONTROL_ACTUATION_PLAN_H_
#define CTRLSHED_CONTROL_ACTUATION_PLAN_H_

#include <cstdint>
#include <string_view>

#include "control/controller.h"

namespace ctrlshed {

/// Where this period's shedding happens. The controller picks the site per
/// period from the plan arithmetic: entry-only when the backlog cannot absorb
/// any of the excess, in-network when the queued backlog covers all of it,
/// split when both halves carry load.
enum class ActuationSite : uint8_t {
  kEntry = 0,      ///< All shedding at the entry gate (coin flip on arrival).
  kInNetwork = 1,  ///< All shedding from operator queues.
  kSplit = 2,      ///< Queue backlog absorbs part, entry gate the rest.
};

std::string_view ActuationSiteName(ActuationSite site);

/// The one site rule: entry unless `queue_target` tuples leave operator
/// queues; then split when entry drops (`alpha` > 0) run alongside,
/// in-network otherwise.
ActuationSite SiteFor(double queue_target, double alpha);

/// One period's actuation decision, produced by the controller layer and
/// consumed by every runtime's actuator (sim FeedbackLoop shedders, rt worker
/// pumps via the RtSharedStats handshake, cluster NodeAgents via kActuation
/// frames). All tuple quantities are entry-tuple equivalents; *_load fields
/// are base-load seconds.
///
/// The plan stores the intermediate terms of the shed computation (to_shed,
/// incoming, queue_target) in the exact floating-point expression order the
/// legacy QueueShedder::Configure used, so an executor that re-derives the
/// entry remainder from the *actual* queue removal reproduces the pre-plan
/// arithmetic bit for bit.
struct ActuationPlan {
  double v = 0.0;         ///< Controller's desired admitted rate v(k).
  ActuationSite site = ActuationSite::kEntry;

  /// True when the planner ran the in-network (queue-shedder) arithmetic,
  /// even if the chosen site is kEntry. Actuators switch semantics on this
  /// flag, not on `site`: the two arithmetics clamp anti-windup differently
  /// (the in-network plan can target v < fin, the entry-only one cannot).
  bool in_network_enabled = false;

  // Entry half (analytic, assuming the in-network budget is achieved).
  double entry_alpha = 0.0;      ///< Planned entry drop probability.
  double planned_applied = 0.0;  ///< Achievable admitted rate (anti-windup).

  // In-network half.
  double to_shed = 0.0;       ///< Excess tuples this period, (fin_f - v)*T.
  double incoming = 0.0;      ///< Expected arrivals this period, fin_f*T.
  double queue_target = 0.0;  ///< Tuples to remove from operator queues.
  double queue_budget_load = 0.0;  ///< queue_target in base-load seconds.
  bool cost_aware = false;    ///< Victim policy: kMostCostly vs kRandom.
};

struct ActuationPlannerOptions {
  /// Mean per-tuple base load at entry (seconds); converts tuple counts to
  /// a base-load budget. Must match the executing engine's NominalEntryCost().
  double nominal_entry_cost = 1.0;
  /// When false the planner never emits an in-network budget and every plan
  /// is site=kEntry with the classic Eq. 13 entry alpha.
  bool allow_in_network = false;
  /// Victim policy for the in-network half.
  bool cost_aware = false;
};

/// Builds per-period ActuationPlans from the controller's desired rate and
/// the monitor's measurement. Pure function of its inputs — safe to share or
/// rebuild per call; holds no cross-period state.
class ActuationPlanner {
 public:
  ActuationPlanner() = default;
  explicit ActuationPlanner(const ActuationPlannerOptions& options)
      : options_(options) {}

  const ActuationPlannerOptions& options() const { return options_; }

  /// Computes the coming period's plan.
  ActuationPlan BuildPlan(double v, const PeriodMeasurement& m) const;

 private:
  ActuationPlannerOptions options_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_CONTROL_ACTUATION_PLAN_H_
