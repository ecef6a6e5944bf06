#ifndef CTRLSHED_RT_RT_LOOP_H_
#define CTRLSHED_RT_RT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "control/controller.h"
#include "control/rate_predictor.h"
#include "core/period_pipeline.h"
#include "metrics/qos_metrics.h"
#include "metrics/recorder.h"
#include "rt/rt_clock.h"
#include "rt/rt_engine.h"
#include "rt/rt_monitor.h"
#include "shedding/shedder.h"

namespace ctrlshed {

class RtPlant;

/// The one shard-admission path, shared by RtLoop's replay sources and the
/// cluster node's tuple ingress. Counts `n` tuples offered to `engine`,
/// then per chunk of up to kRtArrivalBatchMax takes one AdmitBatch
/// decision under `mu` (a null `shedder` admits everything), renumbers
/// the survivors to the engine's `local_source` and pushes them with one
/// OfferBatch (a full ring counts its drops). `mu` serializes the shedder
/// against the thread that applies plans to it; the ring keeps
/// OfferBatch's contract of one producer thread per local source.
void AdmitToShard(RtEngine* engine, Shedder* shedder, std::mutex* mu,
                  int local_source, const Tuple* tuples, size_t n);

/// Options of the real-time control loop; the subset of
/// FeedbackLoopOptions that survives contact with a real clock.
struct RtLoopOptions {
  SimTime period = 1.0;        ///< Control period T, trace seconds.
  double target_delay = 2.0;   ///< Initial setpoint yd (trace seconds).
  double headroom = 0.97;      ///< PER-WORKER H estimate (see RtMonitor).
  double cost_ewma = 1.0;      ///< Cost-estimate smoothing (see RtMonitor).
  bool adapt_headroom = false; ///< Online H estimation (see RtMonitor).
  /// Build in-network-enabled ActuationPlans: each period the controller
  /// thread posts a per-shard queue-shed budget through the RtSharedStats
  /// handshake (the worker consumes it inside its pump) and the entry
  /// shedders apply the plan's analytic entry remainder. Off = classic
  /// entry-only actuation, bit-identical to the pre-plan loop.
  bool queue_shed = false;
  /// Victim policy for the in-network half (kMostCostly vs kRandom).
  bool cost_aware_shed = false;
  /// One-step-ahead arrival-rate forecast feeding the actuator (default:
  /// the paper's last-value estimate, Eq. 13).
  PredictorKind predictor = PredictorKind::kLastValue;
  /// Optional telemetry session (non-owning; must outlive the loop).
  Telemetry* telemetry = nullptr;
};

/// The wall-clock twin of FeedbackLoop: monitor -> controller -> shedders
/// -> N sharded RtEngines, with the feedback ticking on a real periodic
/// thread instead of simulation events.
///
/// Sharding model: the plant is hash-partitioned across N shards, each a
/// worker thread owning its own sim Engine, ingress rings, and shedder.
/// Global source index s routes to shard s % N (and becomes local source
/// s / N inside that shard's engine), so each global source still has
/// exactly one SPSC producer per ring. One controller drives the
/// aggregate: the monitor folds the N shard snapshots into a single
/// virtual plant (q = sum q_i, drain-weighted cost, effective headroom
/// N*H), the controller computes one admitted rate v(k), and actuation
/// fans v back out per shard proportionally to each shard's offered rate
/// over the last period (an even 1/N split when nothing arrived). With
/// N = 1 every aggregation and fan-out step is the identity, so the
/// single-shard loop is bit-identical to the pre-sharding runtime.
///
/// Threading model:
///  - OnArrival runs on the source threads: it routes the batch to its
///    shard and admits it through AdmitToShard under that shard's mutex
///    (the shedders are reused unchanged from the sim and are not
///    thread-safe by themselves).
///  - The controller thread wakes at every period boundary, snapshots all
///    shards' shared atomics at one clock read (the aggregation barrier),
///    and runs the rest of the period through PeriodPipeline with one
///    slice per shard: each plan's in-network budget goes out through the
///    RtSharedStats handshake and the shedder applies the plan under its
///    mutex. Controller, monitor, predictor and recorder are touched by
///    this thread only.
///  - QoS accounting rides the N engine workers' departure callbacks,
///    serialized by a departure mutex, and is read by other threads only
///    after Stop() (joins give happens-before).
class RtLoop {
 public:
  /// Drives `plant`, which must outlive the loop and not be started yet:
  /// the loop installs its departure fan-in on the plant here, and
  /// Start/Stop start and stop it. The controller may be null (open run:
  /// admit everything); per-shard shedders are required otherwise.
  RtLoop(RtPlant* plant, const RtClock* clock, LoadController* controller,
         RtLoopOptions options);
  ~RtLoop();

  RtLoop(const RtLoop&) = delete;
  RtLoop& operator=(const RtLoop&) = delete;

  /// Installs an additional per-departure observer (runs on the engine
  /// worker threads, serialized by the loop). Must be called before Start.
  void SetDepartureObserver(DepartureCallback observer);

  /// Starts the plant's workers and the periodic controller thread. The
  /// clock must already be started.
  void Start();

  /// The controller thread's step at trace time `now`, with zero
  /// lateness, for callers on virtual time: RtPlant::Pump an un-Started
  /// loop's plant to `now` first, as the workers would have.
  void Tick(SimTime now) { ControlTick(now, 0.0); }

  /// Stops the controller thread, then the plant's workers. Idempotent.
  /// Stop the arrival sources first so nothing races the teardown.
  void Stop();

  /// Ingress entry point; one designated thread per GLOBAL tuple source
  /// index. Routes to shard t.source % N of the N-shard plant.
  void OnArrival(const Tuple& t);

  /// Batched ingress: `n` tuples from ONE source (all t.source equal), in
  /// arrival order, admitted through AdmitToShard. At n == 1 this is
  /// exactly OnArrival.
  void OnArrivalBatch(const Tuple* tuples, size_t n);

  /// Changes the delay setpoint at runtime (any thread).
  void SetTargetDelay(double yd);
  double target_delay() const {
    return target_delay_.load(std::memory_order_relaxed);
  }

  // --- Results (valid after Stop()) --------------------------------------

  const Recorder& recorder() const { return pipeline_.recorder(); }
  const RtMonitor& monitor() const { return monitor_; }
  const QosAccumulator& qos() const { return qos_; }

  /// Current control-loop health verdict (see telemetry/health.h).
  /// Thread-safe — the telemetry server's /health handler calls it while
  /// the controller thread keeps feeding periods.
  HealthReport Health() const { return pipeline_.Health(); }

  /// Wall-clock lateness of each control tick past its period deadline
  /// (actuation jitter). Only valid after Stop().
  const LatencyHistogram& actuation_lateness() const {
    return actuation_lateness_;
  }

  /// Total shed tuples (entry drops + ring overflow + in-network) over
  /// offered. Ring overflow counts as loss: a full ingress queue sheds
  /// load whether the controller asked for it or not.
  double LossRatio() const { return Summary().loss_ratio; }

  /// End-of-run summary on the same reporting path as the sim loop.
  QosSummary Summary() const;

 private:
  void ControllerLoop();
  /// `lateness_wall` is how far (wall seconds, >= 0) past the period
  /// deadline the tick started — the actuation jitter this period.
  void ControlTick(SimTime now, double lateness_wall);

  RtPlant* plant_;
  const RtClock* clock_;
  LoadController* controller_;
  RtLoopOptions options_;

  RtMonitor monitor_;
  QosAccumulator qos_;
  PeriodPipeline pipeline_;
  DepartureCallback observer_;
  std::unique_ptr<RatePredictor> predictor_;

  // The last aggregate queue-shed total (controller thread only; for
  // per-period timeline deltas).
  uint64_t prev_queue_shed_ = 0;

  // Controller-thread scratch, sized once. The tick still allocates for
  // what it keeps or serializes: the recorder row (and its shard_q copy
  // when N > 1) and, with telemetry on, the timeline row and the health
  // report behind the health gauges.
  std::vector<RtSample> samples_;

  // Controller-thread telemetry (histogram read elsewhere only after the
  // join in Stop()).
  LatencyHistogram actuation_lateness_{1e-6, 1e3, 1.08};
  TraceBuffer* trace_buf_ = nullptr;
  HistogramMetric* lateness_metric_ = nullptr;
  // Per-shard decomposition gauges, registered only when num_shards > 1
  // (the unsharded telemetry surface is unchanged).
  std::vector<Gauge*> shard_queue_gauges_;
  std::vector<Gauge*> shard_alpha_gauges_;
  std::vector<Gauge*> shard_h_hat_gauges_;

  /// One mutex per shard guarding Admit (source threads) vs ApplyPlan
  /// (controller thread) on that shard's shedder.
  std::unique_ptr<std::mutex[]> shedder_mutexes_;
  /// Serializes the N workers' departure fan-in into qos_/observer_.
  std::mutex departure_mutex_;
  std::atomic<double> target_delay_;
  std::atomic<bool> stop_{false};
  std::thread controller_thread_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_RT_RT_LOOP_H_
