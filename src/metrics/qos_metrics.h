#ifndef CTRLSHED_METRICS_QOS_METRICS_H_
#define CTRLSHED_METRICS_QOS_METRICS_H_

#include <cstdint>

#include "engine/engine.h"
#include "metrics/histogram.h"

namespace ctrlshed {

struct QosSummary;

/// The paper's evaluation metrics (Section 3), accumulated per tuple:
///  - accumulated delay violations: sum of (y - yd) over tuples with y > yd;
///  - total delayed tuples: count of tuples with y > yd;
///  - maximal overshoot: max (y - yd) observed;
/// plus bookkeeping for the data-loss ratio.
class QosAccumulator {
 public:
  explicit QosAccumulator(double target_delay);

  /// Updates the setpoint (violations are judged against the setpoint in
  /// force when the tuple departs).
  void SetTargetDelay(double yd) { target_delay_ = yd; }
  double target_delay() const { return target_delay_; }

  /// Observes one departure. Derived tuples inherit their trigger tuple's
  /// arrival time, so their delays are meaningful and counted too.
  void OnDeparture(const Departure& d);

  double accumulated_violation() const { return accumulated_violation_; }
  uint64_t delayed_tuples() const { return delayed_tuples_; }
  double max_overshoot() const { return max_overshoot_; }
  uint64_t departures() const { return departures_; }
  double mean_delay() const {
    return departures_ == 0 ? 0.0 : delay_sum_ / static_cast<double>(departures_);
  }

  /// End-of-run summary: these delay metrics plus the given shed counts,
  /// with shed = entry_shed + ring_dropped + queue_shed over offered as
  /// the loss ratio.
  QosSummary Summarize(uint64_t offered, uint64_t entry_shed,
                       uint64_t ring_dropped, uint64_t queue_shed) const;

 private:
  double target_delay_;
  double accumulated_violation_ = 0.0;
  uint64_t delayed_tuples_ = 0;
  double max_overshoot_ = 0.0;
  uint64_t departures_ = 0;
  double delay_sum_ = 0.0;
  LatencyHistogram histogram_;
};

/// End-of-run summary of one experiment, combining the delay metrics with
/// the loss accounting.
struct QosSummary {
  double accumulated_violation = 0.0;  ///< Seconds, summed over tuples.
  uint64_t delayed_tuples = 0;
  double max_overshoot = 0.0;          ///< Seconds.
  double loss_ratio = 0.0;             ///< Shed tuples / offered tuples.
  uint64_t offered = 0;
  // Shed accounting, one scheme across sim/rt/cluster (see
  // docs/architecture.md "Shed accounting"):
  //   entry_shed   — coin-flip drops at the entry gate (alpha).
  //   ring_dropped — ingress-ring overflow before the gate (rt only).
  //   queue_shed   — lineages removed from operator queues in-network
  //                  (the engine's shed_lineages counter).
  // `shed` is always their sum.
  uint64_t shed = 0;                   ///< entry_shed+ring_dropped+queue_shed.
  uint64_t entry_shed = 0;
  uint64_t ring_dropped = 0;
  uint64_t queue_shed = 0;
  uint64_t departures = 0;
  double mean_delay = 0.0;             ///< Seconds.
  double p50_delay = 0.0;              ///< Median delay, seconds.
  double p95_delay = 0.0;
  double p99_delay = 0.0;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_METRICS_QOS_METRICS_H_
