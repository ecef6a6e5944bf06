#ifndef CTRLSHED_CONTROL_CONTROLLER_H_
#define CTRLSHED_CONTROL_CONTROLLER_H_

#include <string_view>

#include "common/sim_time.h"

namespace ctrlshed {

/// One control period's worth of measurements, produced by the monitor
/// (RtMonitor, ClusterMonitor) at each period boundary. All rates are in
/// tuples/second (entry-tuple equivalents); delays and costs are in
/// seconds.
struct PeriodMeasurement {
  int k = 0;               ///< Period index (first full period is k = 1).
  SimTime t = 0.0;         ///< Period end time.
  double period = 1.0;     ///< Control period T.
  double target_delay = 0; ///< Current setpoint yd.
  double fin = 0.0;        ///< Offered rate (pre-shedding), last period.
  double fin_forecast = 0.0;  ///< Forecast of the COMING period's offered
                              ///< rate; equals fin unless a RatePredictor
                              ///< is installed (the paper's Eq. 13 default).
  double admitted = 0.0;   ///< Rate actually admitted into the network.
  double fout = 0.0;       ///< Drain rate of the virtual queue.
  double queue = 0.0;      ///< Virtual queue length q(k), entry equivalents.
  double cost = 0.0;       ///< Estimated per-tuple cost c(k), seconds.
  double y_hat = 0.0;      ///< Estimated delay from Eq. (11).
  double y_measured = 0.0; ///< Mean delay of tuples departing this period.
  bool has_y_measured = false;  ///< False when nothing departed.
};

/// Decides the desired admitted data rate v(k) for the coming period — the
/// "when and how much to shed" policy. The actuator (Shedder) then tries to
/// realize this rate.
class LoadController {
 public:
  virtual ~LoadController() = default;

  /// Returns the desired admitted rate v(k) >= 0 in tuples/second.
  virtual double DesiredRate(const PeriodMeasurement& m) = 0;

  /// Informs the controller of the rate the actuator could actually target
  /// after clamping (anti-windup hook; default no-op).
  virtual void NotifyActuation(double /*v_applied*/) {}

  /// Updates the delay setpoint at runtime (Fig. 18 experiments).
  virtual void SetTargetDelay(double /*yd*/) {}

  /// Updates the plant-size estimate H at runtime. The cluster controller
  /// calls this when membership changes (effective headroom is the sum of
  /// active nodes' N_i*H_i); controllers whose gain depends on H override
  /// it, others ignore it.
  virtual void SetHeadroom(double /*headroom*/) {}

  virtual std::string_view name() const = 0;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_CONTROL_CONTROLLER_H_
