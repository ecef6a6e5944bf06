#ifndef CTRLSHED_RT_RT_MONITOR_H_
#define CTRLSHED_RT_RT_MONITOR_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "control/controller.h"
#include "control/period_math.h"
#include "rt/rt_stats.h"

namespace ctrlshed {

/// Options of the periodic measurement process.
struct RtMonitorOptions {
  SimTime period = 1.0;    ///< Nominal control period T, trace seconds.
  /// PER-WORKER H estimate used in the Eq. (11) delay estimate. An
  /// N-shard monitor presents the controller with the aggregate plant's
  /// effective headroom N*H.
  double headroom = 0.97;
  /// EWMA weight of the newest per-period cost measurement in (0,1];
  /// 1 = no smoothing (the paper's "estimate c(k) with c(k-1)").
  double cost_ewma = 1.0;
  /// Online headroom estimation (see PeriodMathOptions::adapt_headroom).
  bool adapt_headroom = false;
  double headroom_ewma = 0.2;
  /// Multiplicative log-normal noise (sigma of log) on the per-period cost
  /// measurement, for the sim only: real Borealis shows ~10% estimation
  /// error (paper Figs. 6B/7B) that the sim's exact counters lack, so its
  /// performance experiments set 0.1. 0 = off (the rt runtime has real
  /// noise).
  double estimation_noise = 0.0;
  uint64_t noise_seed = 99;
};

/// The monitor of the feedback loop (Fig. 3) for every plant: the sim's
/// engine, an rt plant's shards and a cluster node's shards. Each period it
/// differences one RtSample snapshot per shard against that shard's
/// previous one, and a SliceFold (control/period_math.h) sums the shard
/// deltas into the single virtual plant the unchanged controller drives:
/// q = Σ q_i, fout = Σ fout_i, a drain-weighted cost c = nominal * Σ busy_i
/// / Σ drained_i, and the Eq. (11) estimate y_hat = (q+1) c / (N*H) against
/// the aggregate's effective headroom (N workers each grant H of a CPU).
/// Per-shard offered rates and queue lengths of the last period feed the
/// actuation fan-out and the telemetry export.
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

  double CostEstimate() const { return fold_.math().CostEstimate(); }
  double HeadroomEstimate() const { return fold_.math().HeadroomEstimate(); }

  /// Counter deltas the last Sample consumed — exactly what a cluster node
  /// reports upstream so the cluster plant can re-derive the aggregate
  /// measurement without a second cumulative-differencing pass.
  const PeriodDeltas& last_deltas() const { return fold_.deltas(); }
  int num_shards() const { return num_shards_; }
  const RtMonitorOptions& options() const { return options_; }

  // --- Last period's per-shard decomposition (valid after a Sample) -----

  /// Offered rate of each shard over the last period (tuples/second);
  /// the actuation fan-out weights the admitted rate by these.
  const std::vector<double>& shard_fin() const { return fold_.fin(); }

  /// Virtual queue length of each shard at the last sample.
  const std::vector<double>& shard_queues() const { return fold_.queue(); }

  /// Measured per-worker headroom H_hat of each shard — base load drained
  /// per busy second, EWMA-smoothed (see HeadroomTracker). Report-only;
  /// NaN until a shard's first busy period.
  const std::vector<double>& shard_h_hat() const { return shard_h_hat_; }

  /// Aggregate measured per-worker headroom: Σ drained / Σ busy across
  /// shards, which recovers the per-worker H (not N*H) at any load level.
  double h_hat() const { return fold_.h_hat(); }

 private:
  double nominal_entry_cost_;
  int num_shards_;
  RtMonitorOptions options_;
  Rng noise_rng_;
  SliceFold fold_;

  std::vector<RtSample> prev_;  ///< Each shard's previous snapshot.
  std::vector<HeadroomTracker> shard_h_hat_trackers_;
  std::vector<double> shard_h_hat_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_RT_RT_MONITOR_H_
