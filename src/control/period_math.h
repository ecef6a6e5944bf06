#ifndef CTRLSHED_CONTROL_PERIOD_MATH_H_
#define CTRLSHED_CONTROL_PERIOD_MATH_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "control/controller.h"

namespace ctrlshed {

/// Options of the per-period measurement math shared by the sim Monitor
/// and the rt RtMonitor (Section 4.5.1, Eq. 11).
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

/// Cumulative plant counters at a period boundary, plus the instantaneous
/// queue state. The caller supplies cumulative totals; PeriodMath keeps
/// the previous boundary's values and forms the deltas itself.
struct PeriodCounters {
  SimTime now = 0.0;          ///< Boundary time (trace seconds).
  uint64_t offered = 0;       ///< Tuples offered by the sources (pre-shed).
  uint64_t admitted = 0;      ///< Tuples admitted into the network.
  double drained_base_load = 0.0;  ///< Static load drained, seconds.
  double busy_seconds = 0.0;       ///< CPU work performed, seconds.
  /// Instantaneous virtual queue length q in entry-tuple equivalents,
  /// already clamped by the caller (Engine::VirtualQueueLength or the
  /// RtSample reconstruction).
  double queue = 0.0;
  /// Departure-delay accumulation of THIS period (deltas, not cumulative:
  /// the two monitors accumulate differently, so each hands over the
  /// per-period sums it already has).
  double delay_sum = 0.0;
  uint64_t delay_count = 0;
};

/// The per-period measurement process both feedback loops share: rates
/// from counter deltas, the measured per-tuple cost c(k) = nominal *
/// busy/drained with EWMA smoothing, the optional online headroom
/// estimate, and the Eq. (11) delay estimate
///
///   y_hat(k) = q(k) c(k)/H + c(k)/H = (q(k) + 1) c(k) / H.
///
/// The sim Monitor samples at exact event-heap boundaries and passes
/// elapsed = T; the rt RtMonitor's wakeups jitter, so it passes the actual
/// elapsed trace time between snapshots (the PeriodMeasurement still
/// reports the nominal T the controller gains were designed for).
///
/// Not thread-safe: owned by whichever thread runs the monitor.
class PeriodMath {
 public:
  /// `nominal_entry_cost` is the network's model constant c (seconds).
  PeriodMath(double nominal_entry_cost, PeriodMathOptions options);

  /// Forms the measurement for the period ending at `c.now`. `elapsed` is
  /// the trace time the period actually spanned (> 0). `cost_noise`, when
  /// non-null, supplies a multiplier for the raw cost measurement (the sim
  /// Monitor's injected estimation noise); it is invoked only on periods
  /// where the cost update fires, preserving the caller's noise-RNG stream
  /// exactly as the pre-refactor Monitor consumed it.
  PeriodMeasurement Sample(const PeriodCounters& c, double target_delay,
                           double elapsed,
                           const std::function<double()>& cost_noise = nullptr);

  /// Delta entry point: forms the measurement for the period whose counter
  /// deltas are `d`, spanning `elapsed` trace seconds ending at `d.now`.
  /// Sample() is a thin wrapper that differences cumulative counters and
  /// calls this, so both paths share one arithmetic sequence bit-for-bit.
  PeriodMeasurement SampleDeltas(
      const PeriodDeltas& d, double target_delay, double elapsed,
      const std::function<double()>& cost_noise = nullptr);

  /// The deltas consumed by the most recent Sample/SampleDeltas call —
  /// what a cluster node reports upstream for aggregate re-derivation.
  const PeriodDeltas& last_deltas() const { return last_deltas_; }

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
  uint64_t prev_offered_ = 0;
  uint64_t prev_admitted_ = 0;
  double prev_drained_ = 0.0;
  double prev_busy_ = 0.0;
  double prev_queue_ = 0.0;
  double cost_estimate_ = 0.0;
  double headroom_estimate_ = 0.0;
  PeriodDeltas last_deltas_;
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
