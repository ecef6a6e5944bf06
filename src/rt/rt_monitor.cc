#include "rt/rt_monitor.h"

#include <limits>

#include "common/macros.h"
#include "engine/engine.h"

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
      noise_rng_(options.noise_seed),
      fold_(nominal_entry_cost, ToMathOptions(options, num_shards)),
      prev_(static_cast<size_t>(num_shards)),
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
  fold_.Begin(now);
  for (size_t i = 0; i < shards.size(); ++i) {
    const RtSample& s = shards[i];
    RtSample& prev = prev_[i];
    CS_CHECK_MSG(s.now == now, "shard snapshots must share one sample time");
    CS_CHECK_MSG(s.offered >= prev.offered, "offered counter went backwards");
    CS_CHECK_MSG(s.admitted >= prev.admitted,
                 "admitted counter went backwards");
    PeriodDeltas d;
    d.now = now;
    d.offered = s.offered - prev.offered;
    d.admitted = s.admitted - prev.admitted;
    d.drained_base_load = s.drained_base_load - prev.drained_base_load;
    d.busy_seconds = s.busy_seconds - prev.busy_seconds;
    d.queue = VirtualQueueFromLoad(s.queued_tuples, s.outstanding_base_load,
                                   nominal_entry_cost_);
    d.delay_sum = s.delay_sum - prev.delay_sum;
    d.delay_count = s.delay_count - prev.delay_count;
    // Measured per-worker headroom: base load this shard drained per busy
    // second over the period (report-only — the control law keeps the
    // configured H).
    shard_h_hat_[i] =
        shard_h_hat_trackers_[i].Update(d.drained_base_load, d.busy_seconds);
    fold_.Add(d);
    prev = s;
  }
  if (options_.estimation_noise > 0.0) {
    return fold_.Sample(target_delay, [this] {
      return noise_rng_.LogNormal(0.0, options_.estimation_noise);
    });
  }
  return fold_.Sample(target_delay);
}

}  // namespace ctrlshed
