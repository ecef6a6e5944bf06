#include "rt/rt_monitor.h"

#include <algorithm>

#include "common/macros.h"

namespace ctrlshed {

namespace {
PeriodMathOptions ToMathOptions(const RtMonitorOptions& o, int num_shards) {
  PeriodMathOptions mo;
  mo.period = o.period;
  // The aggregate of N workers, each granted H of a CPU, is one plant
  // with effective headroom N*H (and an online estimate that may climb
  // to N full CPUs of work per second).
  mo.headroom = static_cast<double>(num_shards) * o.headroom;
  mo.max_headroom = static_cast<double>(num_shards);
  mo.cost_ewma = o.cost_ewma;
  mo.adapt_headroom = o.adapt_headroom;
  mo.headroom_ewma = o.headroom_ewma;
  return mo;
}

int CheckedShards(int num_shards) {
  CS_CHECK_MSG(num_shards >= 1, "need at least one shard");
  return num_shards;
}
}  // namespace

RtMonitor::RtMonitor(double nominal_entry_cost, int num_shards,
                     RtMonitorOptions options)
    : nominal_entry_cost_(nominal_entry_cost),
      num_shards_(CheckedShards(num_shards)),
      options_(options),
      math_(nominal_entry_cost, ToMathOptions(options, num_shards)),
      prev_shard_offered_(static_cast<size_t>(num_shards), 0),
      prev_shard_busy_(static_cast<size_t>(num_shards), 0.0),
      prev_shard_drained_(static_cast<size_t>(num_shards), 0.0),
      shard_fin_(static_cast<size_t>(num_shards), 0.0),
      shard_queues_(static_cast<size_t>(num_shards), 0.0),
      shard_h_hat_trackers_(static_cast<size_t>(num_shards)),
      shard_h_hat_(static_cast<size_t>(num_shards),
                   std::numeric_limits<double>::quiet_NaN()) {
  CS_CHECK_MSG(options_.headroom > 0.0 && options_.headroom <= 1.0,
               "per-worker headroom must be in (0,1]");
}

PeriodMeasurement RtMonitor::Sample(const std::vector<RtSample>& shards,
                                    double target_delay) {
  CS_CHECK_MSG(shards.size() == static_cast<size_t>(num_shards_),
               "one snapshot per shard required");
  const SimTime now = shards[0].now;
  CS_CHECK_MSG(now > prev_now_, "samples must move forward in time");
  // Rates use the actual elapsed trace time; the controller sees the
  // nominal period its gains were designed for (PeriodMath handles that).
  const double elapsed = now - prev_now_;

  PeriodCounters pc;
  pc.now = now;
  double delay_sum = 0.0;
  uint64_t delay_count = 0;
  double delta_busy = 0.0;
  double delta_drained = 0.0;
  for (size_t i = 0; i < shards.size(); ++i) {
    const RtSample& s = shards[i];
    CS_CHECK_MSG(s.now == now, "shard snapshots must share one sample time");
    pc.offered += s.offered;
    pc.admitted += s.admitted;
    pc.drained_base_load += s.drained_base_load;
    pc.busy_seconds += s.busy_seconds;
    delay_sum += s.delay_sum;
    delay_count += s.delay_count;

    // Per-shard virtual queue length from the outstanding static load,
    // with the same empty-queue residue clamp as Engine::VirtualQueueLength.
    const double q =
        s.queued_tuples == 0
            ? 0.0
            : std::max(0.0, s.outstanding_base_load / nominal_entry_cost_);
    shard_queues_[i] = q;
    pc.queue += q;

    shard_fin_[i] =
        static_cast<double>(s.offered - prev_shard_offered_[i]) / elapsed;
    prev_shard_offered_[i] = s.offered;

    // Measured per-worker headroom: base load this shard drained per busy
    // second over the period (report-only — the control law keeps the
    // configured H).
    shard_h_hat_[i] = shard_h_hat_trackers_[i].Update(
        s.drained_base_load - prev_shard_drained_[i],
        s.busy_seconds - prev_shard_busy_[i]);
    delta_drained += s.drained_base_load - prev_shard_drained_[i];
    delta_busy += s.busy_seconds - prev_shard_busy_[i];
    prev_shard_busy_[i] = s.busy_seconds;
    prev_shard_drained_[i] = s.drained_base_load;
  }
  h_hat_tracker_.Update(delta_drained, delta_busy);
  pc.delay_sum = delay_sum - prev_delay_sum_;
  pc.delay_count = delay_count - prev_delay_count_;
  prev_delay_sum_ = delay_sum;
  prev_delay_count_ = delay_count;
  prev_now_ = now;

  return math_.Sample(pc, target_delay, elapsed);
}

}  // namespace ctrlshed
