#ifndef CTRLSHED_CONTROL_BASELINE_CONTROLLER_H_
#define CTRLSHED_CONTROL_BASELINE_CONTROLLER_H_

#include "control/controller.h"

namespace ctrlshed {

/// The paper's BASELINE method (Section 5): a naive feedback rule that
/// inverts the system model without any controller design. The target
/// delay yd allows yd * H / c outstanding tuples, so
///
///   u(k) = (yd H / c(k) - q(k)) / T,      v(k) = u(k) + H / c(k)
///
/// (the paper's v(k) = -q(k) + yd H/c + T H/c, written as rates; c(k) is
/// estimated by the previous period's measurement, which the monitor
/// already provides). Deadbeat-aggressive: it tries to reach the target
/// queue in a single period, which the paper shows causes large transients
/// and slow recovery compared to CTRL.
class BaselineController : public LoadController {
 public:
  explicit BaselineController(double headroom);

  double DesiredRate(const PeriodMeasurement& m) override;
  std::string_view name() const override { return "BASELINE"; }

 private:
  double headroom_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_CONTROL_BASELINE_CONTROLLER_H_
