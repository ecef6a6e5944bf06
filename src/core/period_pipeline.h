#ifndef CTRLSHED_CORE_PERIOD_PIPELINE_H_
#define CTRLSHED_CORE_PERIOD_PIPELINE_H_

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "control/actuation_plan.h"
#include "metrics/recorder.h"
#include "shedding/shedder.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/health.h"

namespace ctrlshed {

class Telemetry;

/// What one slice's actuator realized for its period plan.
struct SliceActuation {
  double applied = 0.0;       ///< Achievable admitted rate (anti-windup).
  double alpha = 0.0;         ///< Entry drop probability now in force.
  double queue_target = 0.0;  ///< Tuples the plan takes out of queues.
};

/// Applies `plan` to `shedder` and reads back what it realized.
inline SliceActuation ApplySlice(Shedder& shedder, const ActuationPlan& plan,
                                 const PeriodMeasurement& mi) {
  return {shedder.ApplyPlan(plan, mi), shedder.drop_probability(),
          plan.queue_target};
}

/// One period's actuation summed over its slices: Σ applied (what
/// NotifyActuation sees), Σ share·α (the period's α) and Σ queue_target.
struct ActuationFold {
  double applied = 0.0;
  double alpha = 0.0;
  double queue_target = 0.0;

  void Add(double share, const SliceActuation& s) {
    applied += s.applied;
    alpha += share * s.alpha;
    queue_target += s.queue_target;
  }

  /// The period's site, judged on the realized α.
  ActuationSite site() const { return SiteFor(queue_target, alpha); }
};

/// Fig. 3's loop after the monitor, written once for every runtime: fan
/// the command out over the slices in proportion to their offered rates,
/// build and deliver one ActuationPlan per slice, fold what the actuators
/// realized, and publish the finished period. A slice is what one actuator
/// drives (the sim's engine, an rt or node shard, a cluster node); the
/// runtimes differ only in how they sample the plant and in the
/// SliceDelivery that takes a plan to a slice. Owned by one control
/// thread; Health() may be called from any thread.
class PeriodPipeline {
 public:
  /// Applies slice `i`'s plan, built over the slice's measurement `mi`.
  using SliceDelivery = std::function<SliceActuation(
      size_t i, const ActuationPlan& plan, const PeriodMeasurement& mi)>;

  /// `name` labels the flight ring and the <name>.queue/.y_hat/.alpha/
  /// .h_hat gauges. With `telemetry`, periods also reach its timeline, site
  /// counters and gauges. Without `keep_rows` only the flight ring keeps
  /// them.
  PeriodPipeline(const char* name, ActuationPlannerOptions planner,
                 Telemetry* telemetry = nullptr, bool keep_rows = true);

  /// Fans rec->v out over the slices' offered rates `fin` and queues
  /// `queue` (an even split when nothing arrived), delivers each slice's
  /// plan over its share of rec->m, and folds the results into rec's α and
  /// site.
  ActuationFold Actuate(PeriodRecord* rec, std::span<const double> fin,
                        std::span<const double> queue,
                        const SliceDelivery& deliver);

  /// Site-switch event, flight ring, health (h_hat against
  /// `configured_headroom`), site counter, gauges, timeline, recorder.
  void Publish(PeriodRecord rec, double configured_headroom);

  void SetPlanner(const ActuationPlannerOptions& o) {
    planner_ = ActuationPlanner(o);
  }
  /// Site counters and gauges go to `registry`.
  void SetMetricsSink(MetricsRegistry* registry);

  const Recorder& recorder() const { return recorder_; }
  HealthReport Health() const { return health_.Report(); }
  HealthMonitor* health() { return &health_; }
  FlightRecorder* flight() { return &flight_; }

 private:
  ActuationPlanner planner_;
  Telemetry* telemetry_;
  bool keep_rows_;
  std::vector<double> shares_;  ///< Fan-out scratch, reused every period.
  std::array<Counter*, 3> site_counters_{};  ///< Indexed by ActuationSite.
  std::array<Gauge*, 4> loop_gauges_{};  ///< queue, y_hat, alpha, h_hat.
  HealthGauges health_gauges_;
  ActuationSite last_site_ = ActuationSite::kEntry;
  FlightRecorder flight_;
  HealthMonitor health_;
  Recorder recorder_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_CORE_PERIOD_PIPELINE_H_
