#ifndef CTRLSHED_CONTROL_PERIOD_MATH_H_
#define CTRLSHED_CONTROL_PERIOD_MATH_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "control/controller.h"

namespace ctrlshed {

/// Online estimator of the measured headroom H_hat: realized base-load
/// seconds drained per busy second, EWMA-smoothed over control periods.
/// In the engine's processing model a tuple of base load l occupies the
/// CPU for l / H seconds, so drained/busy recovers H at any load level —
/// including under cost-multiplier traces, where it reports the
/// *effective* headroom the plant is actually delivering. Report-only:
/// nothing in the control law reads it.
class HeadroomTracker {
 public:
  explicit HeadroomTracker(double ewma = 0.3) : ewma_(ewma) {}

  /// Feeds one period's deltas. Periods with ~zero busy time carry no
  /// information and leave the estimate unchanged. Returns value().
  double Update(double drained_base_load, double busy_seconds) {
    if (busy_seconds > 1e-9 && drained_base_load >= 0.0) {
      const double sample = drained_base_load / busy_seconds;
      value_ = value_ == value_ ? ewma_ * sample + (1.0 - ewma_) * value_
                                : sample;
    }
    return value_;
  }

  /// Current estimate; NaN until the first informative period.
  double value() const { return value_; }

 private:
  double ewma_;
  double value_ = std::numeric_limits<double>::quiet_NaN();
};

/// Options of the per-period measurement math (Section 4.5.1, Eq. 11).
struct PeriodMathOptions {
  SimTime period = 1.0;    ///< Nominal control period T the gains assume.
  /// Effective headroom H of the plant the measurement describes. A
  /// single-worker plant has H in (0,1]; an N-worker aggregate presents
  /// effective headroom N*H, so the only hard bound is (0, max_headroom].
  double headroom = 0.97;
  /// Upper clamp of the online headroom estimate: 1.0 for one worker,
  /// N for an N-worker aggregate (N CPUs can do N seconds of work per
  /// second).
  double max_headroom = 1.0;
  /// EWMA weight of the newest per-period cost measurement in (0,1];
  /// 1 = no smoothing (the paper's "estimate c(k) with c(k-1)").
  double cost_ewma = 1.0;
  /// Online headroom estimation (the paper's Section 6 future work): when
  /// the engine is saturated for a whole period, the CPU work done per
  /// trace second IS the headroom; an EWMA of that measurement replaces
  /// `headroom` in the Eq. (11) delay estimate.
  bool adapt_headroom = false;
  double headroom_ewma = 0.2;
};

/// Per-period counter deltas plus the instantaneous queue state at the
/// period boundary. This is the wire-friendly form: cluster nodes ship
/// exactly these deltas upstream so the aggregate plant sums them without
/// re-deriving differences from floating-point cumulative totals (which
/// would break bit-identity with the single-process loop).
struct PeriodDeltas {
  SimTime now = 0.0;         ///< Boundary time (trace seconds).
  uint64_t offered = 0;      ///< Tuples offered this period (pre-shed).
  uint64_t admitted = 0;     ///< Tuples admitted this period.
  double drained_base_load = 0.0;  ///< Static load drained, seconds.
  double busy_seconds = 0.0;       ///< CPU work performed, seconds.
  /// Instantaneous virtual queue length q in entry-tuple equivalents at
  /// the boundary, already clamped by the caller.
  double queue = 0.0;
  /// Departure-delay accumulation of this period.
  double delay_sum = 0.0;
  uint64_t delay_count = 0;
};

/// The per-period measurement process every feedback loop shares: rates
/// from counter deltas, the measured per-tuple cost c(k) = nominal *
/// busy/drained with EWMA smoothing, the optional online headroom
/// estimate, and the Eq. (11) delay estimate
///
///   y_hat(k) = q(k) c(k)/H + c(k)/H = (q(k) + 1) c(k) / H.
///
/// It takes one period's deltas and the trace time the period spanned
/// (SliceFold's span rule); the PeriodMeasurement still reports the
/// nominal T the controller gains were designed for.
///
/// Not thread-safe: owned by whichever thread runs the monitor.
class PeriodMath {
 public:
  /// `nominal_entry_cost` is the network's model constant c (seconds).
  PeriodMath(double nominal_entry_cost, PeriodMathOptions options);

  /// Forms the measurement for the period whose counter deltas are `d`,
  /// spanning `elapsed` (> 0) trace seconds ending at `d.now`.
  /// `cost_noise`, when non-null, supplies a multiplier for the raw cost
  /// measurement (the sim's injected estimation noise); it is invoked only
  /// on periods where the cost update fires, so the caller's noise RNG
  /// advances once per informative period.
  PeriodMeasurement SampleDeltas(
      const PeriodDeltas& d, double target_delay, double elapsed,
      const std::function<double()>& cost_noise = nullptr);

  /// Re-targets the plant size mid-run (cluster membership change: the
  /// effective headroom is the sum over active nodes of N_i*H_i). Keeps
  /// the cost EWMA and period index; snaps the online headroom estimate
  /// into the new bound.
  void SetHeadroom(double headroom, double max_headroom);

  double CostEstimate() const { return cost_estimate_; }
  double HeadroomEstimate() const { return headroom_estimate_; }
  const PeriodMathOptions& options() const { return options_; }

 private:
  double nominal_entry_cost_;
  PeriodMathOptions options_;

  int k_ = 0;
  double prev_queue_ = 0.0;
  double cost_estimate_ = 0.0;
  double headroom_estimate_ = 0.0;
};

/// One period of a plant made of slices — the shards of an rt plant or
/// the nodes of a cluster — folded into the single plant the controller
/// drives. Each period: Begin(now), Add() every slice's deltas in a fixed
/// slice order (the floating-point sums are then deterministic), Sample().
///
/// Span rule: a boundary exactly one nominal period after the previous one
/// (now == prev + T, how the sim and the cluster sim compute their ticks)
/// spans exactly T; any other boundary — a jittered wall-clock tick, or a
/// cluster tick after idle ticks — spans now - prev.
///
/// Not thread-safe: owned by whichever thread runs the monitor.
class SliceFold {
 public:
  SliceFold(double nominal_entry_cost, PeriodMathOptions options);

  /// Opens the period ending at `now` (must be later than the last one).
  void Begin(SimTime now);

  /// Sums one slice's deltas into the period and records the slice's
  /// offered rate and queue.
  void Add(const PeriodDeltas& d);

  /// Updates the aggregate H_hat and forms the period's measurement
  /// (PeriodMath::SampleDeltas over the summed deltas and the span).
  PeriodMeasurement Sample(
      double target_delay,
      const std::function<double()>& cost_noise = nullptr);

  /// The summed deltas of the current (or last sampled) period.
  const PeriodDeltas& deltas() const { return sum_; }
  /// Offered rate of each slice this period (tuples/second), slice order.
  const std::vector<double>& fin() const { return fin_; }
  /// Virtual queue length of each slice at the boundary, slice order.
  const std::vector<double>& queue() const { return queue_; }
  /// Aggregate measured per-worker headroom: Σ drained / Σ busy over the
  /// slices, EWMA-smoothed. NaN before the first busy period.
  double h_hat() const { return h_hat_.value(); }

  PeriodMath& math() { return math_; }
  const PeriodMath& math() const { return math_; }

 private:
  PeriodMath math_;
  SimTime prev_now_ = 0.0;
  double span_ = 0.0;
  PeriodDeltas sum_;
  std::vector<double> fin_;
  std::vector<double> queue_;
  HeadroomTracker h_hat_;
};

/// Normalized fan-out weights proportional to `loads` (per-shard or
/// per-node offered rates). Falls back to an even split when the total is
/// zero or negative so an idle plant still distributes the command. The
/// shares sum to 1 up to rounding, so v_i = v * share_i conserves the
/// aggregate command within floating-point error (well under one tuple
/// per period).
std::vector<double> ProportionalShares(const std::vector<double>& loads);

/// The same weights written into `shares`, whose storage is reused.
void ProportionalShares(std::span<const double> loads,
                        std::vector<double>* shares);

}  // namespace ctrlshed

#endif  // CTRLSHED_CONTROL_PERIOD_MATH_H_
