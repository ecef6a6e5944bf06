// rt_web: RunRtExperiment on the web trace with two pinned workers, batch
// 64 and entry shedding, 400k tuples per wall second on average (see
// kRtScale). Loads sharded batched admission, the SPSC ring, the columnar
// engine path and the threaded control tick, with no sockets.
//
// The run replays --seconds x compression trace seconds, in kRtSegments
// calls on distinct input sets. Fresh processes then each make one call
// with the stop flag already raised, which does the whole set-up and tears
// down at once; setup_s is the median of those and the segments' own.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "proc_stats.h"
#include "rt/rt_runtime.h"
#include "inputs.h"

namespace perfbench {

namespace {

using ctrlshed::RtRunConfig;
using ctrlshed::RtRunResult;

constexpr int kSetupProbes = 40;
// The run is kRtSegments runs of --seconds / kRtSegments each, on input
// sets derived from --seed. The web trace's bursts are long-range
// dependent, so independent input sets average out much faster than one
// long one: one 2000 trace s run gave a seed-to-seed spread of 13% in the
// mean delay.
constexpr int kRtSegments = 4;
constexpr uint64_t kRtSeedStride = 1000003;

RtRunConfig MakeConfig(uint64_t seed, double duration,
                       const std::string& pin) {
  RtRunConfig rc;
  rc.base = RtWebBase(seed, duration);
  rc.time_compression = kRtCompression;
  rc.batch = kRtBatch;
  rc.workers = kRtWorkers;
  rc.pin_cpus = pin;
  rc.ring_capacity = kRingCapacity;
  return rc;
}

// Arrivals the rt sources must produce by trace time `until`: the same
// per-source streams RunRtExperiment builds, drawn by the sim-side
// ArrivalSource, which walks the same RNG stream.
uint64_t ReplicaArrivals(const ctrlshed::ExperimentConfig& base, double until) {
  uint64_t n = 0;
  ArrivalStreams streams(base, kRtWorkers,
                         [&n](const ctrlshed::Tuple&) { ++n; });
  streams.RunUntil(until);
  return n;
}

// Pins this process for an rt run: workers on the first two CPUs, every
// other thread (sources, controller) on the third. Returns the workers'
// pin_cpus value ("" when there are fewer than four CPUs).
std::string PinRt() {
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < 4) return "";
  RestrictToCpus({cpus[2]});
  return std::to_string(cpus[0]) + "," + std::to_string(cpus[1]);
}

}  // namespace

double RtSetupOnce(const RunArgs& args) {
  RtRunConfig config = MakeConfig(
      args.seed, args.seconds * kRtCompression / kRtSegments, PinRt());
  const std::atomic<bool> stopped{true};
  config.stop = &stopped;
  const double t0 = WallSeconds();
  const RtRunResult r = ctrlshed::RunRtExperiment(config);
  return WallSeconds() - t0 - r.wall_seconds;
}

RunResult RunRtWeb(const RunArgs& args) {
  RunResult out;
  const std::string pin = PinRt();
  const double duration = args.seconds * kRtCompression / kRtSegments;

  DelayHistogram delays;
  TupleAccounting acc;
  std::vector<double> setup;
  double wall_s = 0.0, cpu_s = 0.0;
  for (int j = 0; j < kRtSegments; ++j) {
    const uint64_t seed = args.seed + kRtSeedStride * static_cast<uint64_t>(j);
    RtRunConfig config = MakeConfig(seed, duration, pin);
    const std::string error = ctrlshed::RtConfigError(config);
    if (!error.empty()) {
      out.Fail("rt config: " + error);
      return out;
    }
    DelayHistogram seg_delays;
    config.base.departure_observer = [&seg_delays](const ctrlshed::Departure& d) {
      seg_delays.Record(d.depart_time - d.arrival_time);
    };
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = WallSeconds();
    const RtRunResult r = ctrlshed::RunRtExperiment(config);
    setup.push_back(WallSeconds() - t0 - r.wall_seconds);
    cpu_s += ProcessCpuSeconds() - cpu0;
    wall_s += r.wall_seconds;

    const ctrlshed::QosSummary& s = r.summary;
    TupleAccounting seg;
    seg.generated = s.offered;  // the sources call admission directly
    seg.offered = s.offered;
    seg.departed = s.departures;
    seg.entry_shed = s.entry_shed;
    seg.ring_dropped = s.ring_dropped;
    seg.queue_shed = s.queue_shed;
    // The sources must have delivered their whole stream up to a stall's
    // worth of wall time before the stop, and nothing beyond the trace.
    const double lag = std::max(2.0 * config.base.period,
                                kStallWallSeconds * kRtCompression);
    const uint64_t by_end = ReplicaArrivals(config.base, duration);
    const uint64_t by_lag = ReplicaArrivals(config.base, duration - lag);
    const double last_fin =
        r.recorder.empty() ? 0.0 : r.recorder.rows().back().m.fin;
    // In flight at the stop: what the queues held, plus the arrivals of the
    // last periods and of a stall that the recorder may not have seen yet.
    seg.in_flight_bound = static_cast<uint64_t>(
        2.0 * MaxQueue(r.recorder) + 2.0 * last_fin * config.base.period +
        static_cast<double>(config.ring_capacity * kRtWorkers +
                            (by_end - std::min(by_end, by_lag))));
    const std::string at = "segment " + std::to_string(j) + ": ";
    out.Check(CheckConservation(seg), (at + "tuple conservation").c_str());
    out.Check(CheckPeriodInvariants(SignalsOf(r.recorder)),
              (at + "loop invariants").c_str());

    uint64_t shard_offered = 0;
    for (const ctrlshed::RtShardSummary& shard : r.shards) {
      shard_offered += shard.offered;
    }
    if (shard_offered != s.offered) {
      out.Fail(at + "shard offered counts do not sum");
    }
    if (s.offered > by_end || s.offered < by_lag) {
      out.Fail(at + "offered " + std::to_string(s.offered) +
               " outside the generated stream [" + std::to_string(by_lag) +
               ", " + std::to_string(by_end) + "]");
    }
    if (seg_delays.count() != s.departures || seg_delays.invalid() != 0) {
      out.Fail(at + "departure observer saw " +
               std::to_string(seg_delays.count()) + " valid delays for " +
               std::to_string(s.departures) + " departures");
    }
    if (r.interrupted) out.Fail(at + "run was interrupted");
    if (static_cast<double>(r.recorder.rows().size()) +
            lag / config.base.period <
        duration / config.base.period) {
      out.Fail(at + "recorder holds only " +
               std::to_string(r.recorder.rows().size()) + " periods");
    }

    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "rt_web seed %llu: %.0f trace s in %.3f wall s, offered "
                  "%llu, departed %llu, ring_dropped %llu",
                  static_cast<unsigned long long>(seed), duration,
                  r.wall_seconds, static_cast<unsigned long long>(s.offered),
                  static_cast<unsigned long long>(s.departures),
                  static_cast<unsigned long long>(s.ring_dropped));
    out.notes.push_back(buf);
    delays.Merge(seg_delays);
    acc.generated += seg.generated;
    acc.offered += seg.offered;
    acc.departed += seg.departed;
    acc.entry_shed += seg.entry_shed;
    acc.ring_dropped += seg.ring_dropped;
    acc.queue_shed += seg.queue_shed;
    // Probes after every segment, so that the samples spread over the run.
    for (double x : FreshSetupSamples(args, kSetupProbes / kRtSegments)) {
      setup.push_back(x);
    }
  }

  out.attempted = acc.generated;
  out.failed = FailedTuples(acc);
  out.notes.push_back("rt_web: failed_ratio " +
                      std::to_string(FailedRatio(acc)));

  const double offered = static_cast<double>(acc.offered);
  out.Add("setup_s", Median(setup), "s");
  out.Add("sim_tuples_per_s", offered / wall_s, "tuples/s");
  out.Add("delivered_tps", static_cast<double>(acc.departed) / wall_s,
          "tuples/s");
  out.Add("cpu_ns_per_tuple", 1e9 * cpu_s / offered, "ns");
  out.Add("loss_ratio", LossRatio(acc), "fraction");
  out.Add("delay_mean_s", delays.Mean(), "s");
  out.Add("delay_p99_s", delays.Quantile(0.99), "s");
  out.Add("rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace perfbench
