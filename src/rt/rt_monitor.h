#ifndef CTRLSHED_RT_RT_MONITOR_H_
#define CTRLSHED_RT_RT_MONITOR_H_

#include <cstdint>
#include <vector>

#include "control/controller.h"
#include "control/period_math.h"
#include "rt/rt_stats.h"
#include "telemetry/health.h"

namespace ctrlshed {

/// Options of the real-time measurement process; mirrors MonitorOptions
/// minus the simulation-only knobs (measurement noise is no longer
/// injected — the real runtime has real noise).
struct RtMonitorOptions {
  SimTime period = 1.0;    ///< Nominal control period T, trace seconds.
  /// PER-WORKER H estimate used in the Eq. (11) delay estimate. An
  /// N-shard monitor presents the controller with the aggregate plant's
  /// effective headroom N*H.
  double headroom = 0.97;
  /// EWMA weight of the newest per-period cost measurement in (0,1];
  /// 1 = no smoothing (the paper's "estimate c(k) with c(k-1)").
  double cost_ewma = 1.0;
  /// Online headroom estimation (see Monitor::adapt_headroom).
  bool adapt_headroom = false;
  double headroom_ewma = 0.2;
};

/// The monitor of the real-time feedback loop: the same per-period math as
/// the sim-side Monitor (shared via control/period_math.h — Eq. 11 delay
/// estimate from the virtual queue length, measured cost
/// c(k) = nominal * busy/drained, drain rate fout), but computed from
/// RtSample snapshots of the shared atomics instead of poking the engine
/// objects — the engines live on other threads.
///
/// Sharded plants: with N > 1 shards the monitor aggregates one snapshot
/// per shard into a single virtual plant the unchanged controller can
/// drive — q = Σ q_i, fout = Σ fout_i, a drain-weighted cost
/// c = nominal * Σ busy_i / Σ drained_i, and an Eq. (11) estimate against
/// the aggregate's effective headroom N*H (N workers each grant H of a
/// CPU, so the aggregate drains at N*H/c tuples per second). Per-shard
/// offered rates and queue lengths of the last period are kept for the
/// actuation fan-out and the telemetry export.
///
/// Real-time wrinkle: the controller thread's wakeups jitter, so rates are
/// formed over the *actual* elapsed trace time between samples, not the
/// nominal T. The PeriodMeasurement still reports the nominal period
/// (controller gains are designed for T; the jitter is orders of magnitude
/// smaller).
///
/// Not thread-safe: owned and called by the controller thread only (or a
/// test driving it with a fake clock).
class RtMonitor {
 public:
  /// `nominal_entry_cost` is the model constant c (seconds) each shard's
  /// Engine::NominalEntryCost reports (shards are homogeneous).
  RtMonitor(double nominal_entry_cost, int num_shards,
            RtMonitorOptions options);

  /// Forms the aggregate measurement for the period ending at the common
  /// snapshot time. `shards` holds one snapshot per shard, all taken at
  /// the same `now`, in shard order; its size must equal num_shards().
  PeriodMeasurement Sample(const std::vector<RtSample>& shards,
                           double target_delay);

  double CostEstimate() const { return math_.CostEstimate(); }
  double HeadroomEstimate() const { return math_.HeadroomEstimate(); }

  /// Counter deltas the last Sample consumed — exactly what a cluster node
  /// reports upstream so the cluster plant can re-derive the aggregate
  /// measurement without a second cumulative-differencing pass.
  const PeriodDeltas& last_deltas() const { return math_.last_deltas(); }
  int num_shards() const { return num_shards_; }
  const RtMonitorOptions& options() const { return options_; }

  // --- Last period's per-shard decomposition (valid after a Sample) -----

  /// Offered rate of each shard over the last period (tuples/second);
  /// the actuation fan-out weights the admitted rate by these.
  const std::vector<double>& shard_fin() const { return shard_fin_; }

  /// Virtual queue length of each shard at the last sample.
  const std::vector<double>& shard_queues() const { return shard_queues_; }

  /// Measured per-worker headroom H_hat of each shard — base load drained
  /// per busy second, EWMA-smoothed (see HeadroomTracker). Report-only;
  /// NaN until a shard's first busy period.
  const std::vector<double>& shard_h_hat() const { return shard_h_hat_; }

  /// Aggregate measured per-worker headroom: Σ drained / Σ busy across
  /// shards, which recovers the per-worker H (not N*H) at any load level.
  double h_hat() const { return h_hat_tracker_.value(); }

 private:
  double nominal_entry_cost_;
  int num_shards_;
  RtMonitorOptions options_;
  PeriodMath math_;

  SimTime prev_now_ = 0.0;
  std::vector<uint64_t> prev_shard_offered_;
  std::vector<double> prev_shard_busy_;
  std::vector<double> prev_shard_drained_;
  double prev_delay_sum_ = 0.0;
  uint64_t prev_delay_count_ = 0;

  std::vector<double> shard_fin_;
  std::vector<double> shard_queues_;
  std::vector<HeadroomTracker> shard_h_hat_trackers_;
  std::vector<double> shard_h_hat_;
  HeadroomTracker h_hat_tracker_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_RT_RT_MONITOR_H_
