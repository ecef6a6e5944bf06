#ifndef CTRLSHED_RT_RT_RUNTIME_H_
#define CTRLSHED_RT_RT_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/histogram.h"
#include "metrics/qos_metrics.h"
#include "metrics/recorder.h"
#include "rt/rt_engine.h"
#include "rt/rt_loop.h"
#include "runner/experiment.h"
#include "telemetry/health.h"

namespace ctrlshed {

/// The knobs of the sharded rt plant (BuildRtPlant) that `ctrlshed rt`
/// and `ctrlshed node` share; RtPlantError validates them.
struct RtPlantConfig {
  /// Worker shards the plant is partitioned across (see RtLoop). In an rt
  /// run the offered-rate trace is split evenly (ArrivalSourcesFor): N
  /// replay sources, each driving its own shard with the base trace scaled
  /// by 1/N (independent arrival draws per source), so the aggregate
  /// offered load matches the unsharded run. 1 = the historical
  /// single-worker runtime, bit for bit.
  int workers = 1;

  /// Trace-seconds per wall-second (see RtClock). 20 replays a 400 s
  /// experiment in 20 wall seconds; CI soaks use more.
  double time_compression = 20.0;
  size_t ring_capacity = 4096;
  double pacing_wall_seconds = kRtPacingWallSeconds;

  /// Datapath batch size (see RtEngineOptions::batch): SPSC pop run length
  /// and engine invocation quantum. 1 (default) is the seed-equivalent
  /// per-tuple path with bit-identical control arithmetic.
  size_t batch = 1;

  /// Worker core pinning (see rt/cpu_affinity.h): "" or "0" = unpinned
  /// (default), "auto" = shard i pins to CPU i % NumCpus(), a comma list
  /// like "0,2,4" = shard i pins to list[i % len]. Validated by
  /// RtPlantError; pinning itself is best-effort.
  std::string pin_cpus;
};

/// One real-time closed-loop run. `base` carries everything the sim
/// harness already knows how to describe — method, workload, duration,
/// control period, setpoint (schedule), headrooms, capacity, gains,
/// predictor, spacing, seed, the Fig. 14 time-varying cost trace
/// (`vary_cost`, sampled on each worker's clock), and the in-network queue
/// shedder (`use_queue_shedder` / `cost_aware_shedding`, executed by the
/// worker pumps from each period's posted budget — see the RtSharedStats
/// actuation-plan handshake). The one remaining simulation-only knob is
/// injected estimation noise (real noise comes free in rt); see
/// RtConfigError.
struct RtRunConfig : RtPlantConfig {
  ExperimentConfig base;

  /// Optional early-stop flag (e.g. set by a SIGINT handler). The main
  /// thread polls it between sleep chunks; when it flips true the run
  /// tears down cleanly — sources stop, threads join, telemetry flushes
  /// complete trace.json / timeline.* files — and the result covers the
  /// periods that finished. Not owned; may be null.
  const std::atomic<bool>* stop = nullptr;
};

/// Per-shard slice of a sharded run's accounting. Shed counters follow the
/// repo-wide scheme (docs/architecture.md "Shed accounting"): entry_shed
/// (gate drops) + ring_dropped (ingress overflow) + queue_shed (in-network
/// drops from operator queues) sum to the shard's total loss.
struct RtShardSummary {
  uint64_t offered = 0;
  uint64_t entry_shed = 0;
  uint64_t ring_dropped = 0;
  uint64_t queue_shed = 0;
  double queue_shed_load = 0.0;  ///< queue_shed in base-load seconds.
  uint64_t departed = 0;
  /// Measured per-worker headroom H_hat at the end of the run (see
  /// RtMonitor::shard_h_hat); NaN when the shard never got busy.
  double h_hat = std::numeric_limits<double>::quiet_NaN();
  LatencyHistogram pump_intervals{1e-6, 1e3, 1.08};
};

/// Results on the same reporting path as the sim's ExperimentResult, plus
/// the rt-specific accounting.
struct RtRunResult {
  QosSummary summary;
  Recorder recorder;  ///< Per-period closed-loop trace.
  double nominal_cost = 0.0;

  uint64_t ring_dropped = 0;  ///< Ingress-ring overflow drops (in `shed`).
  /// Wakes of the replay threads, summed over sources (at most one per
  /// pacing interval each; see RtArrivalSource).
  uint64_t replay_wakeups = 0;
  double wall_seconds = 0.0;  ///< Real elapsed time of the run.

  /// Worker shards of the run, and each shard's slice of the counters
  /// (`shards.size() == workers`; the summary holds the aggregates).
  int workers = 1;
  std::vector<RtShardSummary> shards;

  // Scheduling-jitter record, always collected (see RtEngine/RtLoop):
  // wall seconds between worker pumps (merged over all shards), and wall
  // seconds each control tick ran past its period deadline.
  LatencyHistogram pump_intervals{1e-6, 1e3, 1.08};
  LatencyHistogram actuation_lateness{1e-6, 1e3, 1.08};

  // Telemetry accounting, non-zero only when telemetry was on.
  uint64_t trace_events = 0;   ///< Span/instant events captured.
  uint64_t trace_dropped = 0;  ///< Events lost to full trace rings.
  uint64_t timeline_rows = 0;  ///< Per-period rows exported.

  // Live-server accounting, meaningful only with base.telemetry.server_port
  // >= 0.
  int telemetry_port = -1;          ///< Bound port; -1 when no server ran.
  uint64_t sse_clients = 0;         ///< HTTP connections accepted.
  uint64_t sse_rows_published = 0;  ///< Timeline rows offered to the feed.
  uint64_t sse_rows_dropped = 0;    ///< Rows lost to slow SSE clients.

  /// Health verdict at the end of the run (see telemetry/health.h).
  HealthReport health;

  bool interrupted = false;  ///< True when config.stop ended the run early.
};

/// Largest ingress ring capacity (tuples per shard) the rt plant accepts.
inline constexpr size_t kRtMaxRingCapacity = size_t{1} << 20;

/// Validates the rt-plant knobs `ctrlshed rt` and `ctrlshed node` share:
/// workers in [1, 64], compress positive, ring in [1, kRtMaxRingCapacity],
/// batch in [1, 4096], and a well-formed pin_cpus. Returns an empty string
/// when valid, else a message naming the offending knob.
std::string RtPlantError(const RtPlantConfig& config);

/// Validates `config` against what the rt runtime supports
/// (ExperimentConfigError, the rt-only limits, RtPlantError). Returns an
/// empty string when runnable, else an actionable message naming the
/// offending knob. CLIs should call this and exit(2) on a non-empty result;
/// RunRtExperiment CS_CHECKs it (passing an unvalidated config is a
/// programming error).
std::string RtConfigError(const RtRunConfig& config);

/// Shard i of an RtPlant: a query network, the RtEngine that owns it, and
/// the entry shedder gating its ingress (null only in open runs).
struct RtShard {
  std::unique_ptr<QueryNetwork> net;
  std::unique_ptr<RtEngine> engine;
  std::unique_ptr<Shedder> shedder;
};

/// The sharded plant `ctrlshed rt`, `ctrlshed node` and the cluster sim
/// run, and the one code that walks its shards. Start, Stop and Pump run
/// on the owning thread, PostPlan on one controlling thread at a time;
/// Snapshot, Shard and Totals read only the RtSharedStats atomics.
class RtPlant {
 public:
  /// Shards must be homogeneous (same nominal entry cost) and not started.
  explicit RtPlant(std::vector<RtShard> shards);
  RtPlant(const RtPlant&) = delete;  // RtLoop and budget posters keep &plant
  RtPlant& operator=(const RtPlant&) = delete;

  size_t size() const { return shards_.size(); }
  RtEngine* engine(size_t i) const { return shards_[i].engine.get(); }
  Shedder* shedder(size_t i) const { return shards_[i].shedder.get(); }
  std::vector<Shedder*> shedders() const;  ///< In shard order.
  /// Installs `cb` on every engine (see RtEngine::SetDepartureCallback).
  void SetDepartureCallback(const DepartureCallback& cb);

  void Start();  ///< Launches every worker.
  void Stop();   ///< Stops and joins every worker. Idempotent.
  /// Pumps every shard to `now` on the caller's thread (virtual time).
  void Pump(SimTime now);
  /// Reads every shard's counters at the one trace instant `now`.
  void Snapshot(SimTime now, std::vector<RtSample>* samples) const;
  /// Posts shard `i`'s in-network budget under the one plan sequence.
  void PostPlan(size_t i, const ActuationPlan& plan);

  /// Shard `i`'s counters (h_hat and pump_intervals at their defaults),
  /// and their sum over every shard.
  RtShardSummary Shard(size_t i) const { return Sum(i, i + 1); }
  RtShardSummary Totals() const { return Sum(0, shards_.size()); }
  /// Every worker's pump intervals, merged. Only valid after Stop().
  LatencyHistogram PumpIntervals() const;

 private:
  RtShardSummary Sum(size_t first, size_t last) const;

  std::vector<RtShard> shards_;
  uint64_t plan_seq_ = 0;
};

/// Builds `config.workers` shards on `clock`: shard i gets an
/// identification network, an RtEngine with one local source and the
/// entry shedder MakeEntryShedder(base, i). Every engine gets headroom
/// H_true, the config's ring, pacing and batch, `telemetry` (may be null),
/// a per-shard pump metric when sharded, the Fig. 14 cost multiplier, its
/// shard index, the CPU `pin_cpus` assigns, and the victim seed
/// seed + 6 + 7919 i (distinct from the entry shedders' streams).
RtPlant BuildRtPlant(const ExperimentConfig& base,
                     const RtPlantConfig& config, Telemetry* telemetry,
                     const RtClock* clock);

/// Builds the standard plant (identification network + RtEngine + replay
/// source + chosen controller/shedder), races it against the wall clock
/// for `base.duration` trace seconds, joins everything, and returns the
/// metrics.
RtRunResult RunRtExperiment(const RtRunConfig& config);

}  // namespace ctrlshed

#endif  // CTRLSHED_RT_RT_RUNTIME_H_
