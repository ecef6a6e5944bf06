#include "metrics/qos_metrics.h"

#include <algorithm>

#include "common/macros.h"

namespace ctrlshed {

QosAccumulator::QosAccumulator(double target_delay)
    : target_delay_(target_delay) {
  CS_CHECK_MSG(target_delay_ > 0.0, "target delay must be positive");
}

void QosAccumulator::OnDeparture(const Departure& d) {
  const double delay = d.depart_time - d.arrival_time;
  CS_CHECK_MSG(delay >= -1e-9, "negative delay observed");
  ++departures_;
  delay_sum_ += delay;
  histogram_.Record(std::max(0.0, delay));
  const double over = delay - target_delay_;
  if (over > 0.0) {
    accumulated_violation_ += over;
    ++delayed_tuples_;
    max_overshoot_ = std::max(max_overshoot_, over);
  }
}

QosSummary QosAccumulator::Summarize(uint64_t offered, uint64_t entry_shed,
                                     uint64_t ring_dropped,
                                     uint64_t queue_shed) const {
  QosSummary s;
  s.accumulated_violation = accumulated_violation_;
  s.delayed_tuples = delayed_tuples_;
  s.max_overshoot = max_overshoot_;
  s.offered = offered;
  s.entry_shed = entry_shed;
  s.ring_dropped = ring_dropped;
  s.queue_shed = queue_shed;
  s.shed = entry_shed + ring_dropped + queue_shed;
  s.loss_ratio = offered == 0 ? 0.0
                              : static_cast<double>(s.shed) /
                                    static_cast<double>(offered);
  s.departures = departures_;
  s.mean_delay = mean_delay();
  s.p50_delay = histogram_.Quantile(0.50);
  s.p95_delay = histogram_.Quantile(0.95);
  s.p99_delay = histogram_.Quantile(0.99);
  return s;
}

}  // namespace ctrlshed
