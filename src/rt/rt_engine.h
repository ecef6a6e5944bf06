#ifndef CTRLSHED_RT_RT_ENGINE_H_
#define CTRLSHED_RT_RT_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "engine/tuple.h"
#include "metrics/histogram.h"
#include "rt/rt_clock.h"
#include "rt/rt_stats.h"
#include "rt/spsc_ring.h"
#include "telemetry/telemetry.h"

namespace ctrlshed {

class OperatorTelemetry;

struct RtEngineOptions {
  double headroom = 0.97;        ///< TRUE CPU fraction, as in Engine.
  size_t ring_capacity = 4096;   ///< Per-source ingress ring size.
  /// Pump granularity in WALL seconds: how often the worker drains the
  /// rings and advances the engine. Must be well below the control
  /// period's wall duration.
  double pacing_wall_seconds = kRtPacingWallSeconds;
  /// Datapath batch size, in [1, 4096]: how many tuples each SPSC pop
  /// moves per index publish, and the invocation quantum the engine's
  /// scheduler grants per operator visit. 1 is the seed-equivalent
  /// per-tuple path (bit-identical control arithmetic); larger values
  /// amortize the atomics and the per-visit scheduling/observer overhead.
  size_t batch = 1;
  /// Optional telemetry session (non-owning; must outlive the engine).
  /// Null disables tracing/metric registration — the worker's hot path
  /// then carries one dead branch per pump.
  Telemetry* telemetry = nullptr;
  /// Which shard of a partitioned plant this engine is; labels the worker
  /// thread's telemetry ("rt.worker<i>"). 0 for the unsharded runtime.
  int shard_index = 0;
  /// Register a per-shard pump-interval histogram
  /// ("rt.shard<i>.pump_interval_s") in addition to the aggregate
  /// "rt.pump_interval_s". The sharded runtime enables this so the
  /// Prometheus exporter can serve one labeled summary family.
  bool per_shard_pump_metric = false;
  /// Time-varying per-tuple cost multiplier, sampled on the WORKER's clock
  /// as the engine executes (Fig. 14 circumstances ported to rt). Installed
  /// on the inner engine before the worker starts; null = constant cost.
  /// The callable must be safe to invoke from the worker thread for the
  /// engine's lifetime (a read-only trace lookup qualifies).
  CostMultiplierFn cost_multiplier;
  /// CPU to pin the worker thread to at start (-1 = unpinned). Pinning is
  /// a best-effort performance hint: a failed pin (non-Linux platform, CPU
  /// out of range) is ignored and the worker runs unpinned.
  int pin_cpu = -1;
  /// Seed of the worker-owned victim RNG for in-network shedding. The
  /// worker consumes the controller's posted queue budget (see
  /// RtSharedStats plan handshake) inside its pump, so victim selection
  /// must not share the controller thread's RNG.
  uint64_t queue_shed_seed = 0;
};

/// The real-time plant: one worker thread that owns a sim Engine
/// exclusively and slaves its virtual CPU to the wall clock.
///
/// Every pump the worker (1) drains the per-source SPSC ingress rings into
/// the engine, (2) calls Engine::AdvanceTo(clock->Now()), so exactly the
/// work that fits in the real elapsed time executes — wall time, not an
/// event queue, is what gates progress — and (3) republishes the engine's
/// counters into the RtSharedStats atomics for the monitor thread. All of
/// the sim engine's O(1) bookkeeping invariants (virtual queue length,
/// outstanding base load, lineage refcounts, busy/drained accounting) are
/// reused verbatim; the engine object itself is never touched by any other
/// thread.
///
/// Ingress is lock-free: producers call OfferBatch() through AdmitToShard
/// (one designated thread per source index), which pushes into that
/// source's ring; a full ring rejects the tuples and the drop is counted
/// into the shared stats — overflow is load shedding the controller must
/// account for.
class RtEngine {
 public:
  /// `network` must be finalized and outlive the engine; `clock` must be
  /// started before Start() and outlive the engine.
  RtEngine(QueryNetwork* network, const RtClock* clock, int num_sources,
           RtEngineOptions options);
  ~RtEngine();

  RtEngine(const RtEngine&) = delete;
  RtEngine& operator=(const RtEngine&) = delete;

  /// Installs the per-departure observer. Runs on the WORKER thread; must
  /// be set before Start. The observer's state may be read by other
  /// threads only after Stop() (thread join gives the happens-before).
  void SetDepartureCallback(DepartureCallback cb);

  /// Launches the worker thread.
  void Start();

  /// Signals the worker, joins it, and publishes a final snapshot.
  /// Idempotent.
  void Stop();

  /// Ingress: pushes `n` tuples — all with the same `source` — into that
  /// source's ring with one index publish. At most one thread per source
  /// index may call this. Returns how many were accepted; the rejected
  /// tail has already been counted as ring drops.
  size_t OfferBatch(const Tuple* tuples, size_t n);

  /// One drain-and-advance step: moves every due tuple (arrival <= `now`)
  /// from the ingress rings into the engine in arrival order, advances the
  /// virtual CPU to `now`, drains the posted in-network budget and
  /// publishes the counters into stats(). Normally driven by the worker
  /// thread; exposed so callers on virtual time (the cluster sim,
  /// benchmarks, tests) can pump an un-Started engine synchronously (same
  /// single-thread ownership rules as Start).
  void Pump(SimTime now);

  /// Shared observation surface (monitor thread reads, see RtSharedStats).
  RtSharedStats* stats() { return &stats_; }

  double NominalEntryCost() const { return nominal_entry_cost_; }
  int num_sources() const { return static_cast<int>(rings_.size()); }

  /// The inner engine's counters. Only valid after Stop().
  const EngineCounters& counters() const { return engine_.counters(); }

  /// Wall-clock interval between consecutive pump starts — the worker's
  /// scheduling-jitter record, always collected (one histogram increment
  /// per pump). Only valid after Stop().
  const LatencyHistogram& pump_intervals() const { return pump_intervals_; }

 private:
  void WorkerLoop();
  /// Republishes the engine-side counters into the shared atomics.
  void Publish();
  /// Executes the pending in-network shed budget against the engine's
  /// operator queues (worker thread only; see RtSharedStats handshake).
  void ConsumeShedBudget();
  /// Merges the per-ring arrival-sorted runs recorded in `run_bounds_`
  /// into `inject_order_` (stable across rings: ties go to the lower ring
  /// index, reproducing what stable_sort over the concatenation gives).
  void MergeRunsByArrival();

  const RtClock* clock_;
  RtEngineOptions options_;
  Engine engine_;  ///< Worker-thread-owned after Start().
  double nominal_entry_cost_;
  std::vector<std::unique_ptr<SpscRing<Tuple>>> rings_;

  RtSharedStats stats_;
  DepartureCallback on_departure_;

  // Worker-local pump scratch, all reused across pumps so the steady
  // state allocates nothing: the per-ring batch-pop staging buffer, the
  // due tuples of this pump (as per-ring sorted runs), the run boundaries,
  // the merged injection order, and the parked not-yet-due tuples per ring
  // (a FIFO drained from `head`; batch pops can park several at once).
  struct Holdover {
    std::vector<Tuple> buf;
    size_t head = 0;
    bool empty() const { return head == buf.size(); }
  };
  std::vector<Tuple> scratch_;
  std::vector<Tuple> pending_;
  std::vector<std::pair<size_t, size_t>> run_bounds_;
  std::vector<Tuple> inject_order_;
  std::vector<size_t> run_cursor_;
  std::vector<Holdover> holdover_;

  // Worker-local departure-delay accumulation, published each pump.
  double delay_sum_local_ = 0.0;
  uint64_t delay_count_local_ = 0;

  // Worker-owned in-network shedding state: the remaining budget of the
  // current plan (base-load seconds), refreshed whenever plan_seq changes
  // (an unspent budget expires at the period boundary), and the victim RNG
  // (worker-thread-only — the plan crosses threads, the queues never do).
  Rng shed_rng_;
  uint64_t plan_seq_seen_ = 0;
  double shed_budget_remaining_ = 0.0;
  bool shed_cost_aware_ = false;

  // Worker-local telemetry (trace buffer registered at thread start;
  // histogram read by other threads only after the join in Stop()).
  LatencyHistogram pump_intervals_{1e-6, 1e3, 1.08};
  TraceBuffer* trace_buf_ = nullptr;
  HistogramMetric* pump_interval_metric_ = nullptr;
  HistogramMetric* shard_pump_interval_metric_ = nullptr;
  Counter* pump_counter_ = nullptr;
  /// Per-operator spans/counters (worker-thread-owned; created at thread
  /// start, torn down after the join).
  std::unique_ptr<OperatorTelemetry> op_telemetry_;

  std::atomic<bool> stop_{false};
  std::thread worker_;
  bool started_ = false;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_RT_RT_ENGINE_H_
