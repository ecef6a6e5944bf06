#ifndef CTRLSHED_CORE_FEEDBACK_LOOP_H_
#define CTRLSHED_CORE_FEEDBACK_LOOP_H_

#include <cstdint>
#include <memory>

#include "control/controller.h"
#include "control/rate_predictor.h"
#include "core/period_pipeline.h"
#include "engine/engine.h"
#include "metrics/per_source_stats.h"
#include "metrics/qos_metrics.h"
#include "metrics/recorder.h"
#include "rt/rt_monitor.h"
#include "shedding/shedder.h"
#include "sim/simulation.h"

namespace ctrlshed {

class Telemetry;

/// Options of the closed control loop.
struct FeedbackLoopOptions {
  SimTime period = 1.0;        ///< Control period T.
  double target_delay = 2.0;   ///< Initial setpoint yd (seconds).
  double headroom = 0.97;      ///< H estimate shared by monitor & estimator.
  double cost_ewma = 1.0;      ///< Cost-estimate smoothing (see RtMonitor).
  double estimation_noise = 0.0;  ///< Cost-measurement noise (see RtMonitor).
  uint64_t noise_seed = 99;
  bool adapt_headroom = false;    ///< Online H estimation (see RtMonitor).
  /// When > 0, keep per-stream offered/admitted/delay statistics for this
  /// many sources (see PerSourceStats). 0 disables the accounting.
  int track_sources = 0;
  /// Build in-network-enabled ActuationPlans: each period the planner
  /// splits the shed between operator queues and the entry gate. Off =
  /// classic entry-only plans (bit-identical to the pre-plan loop).
  bool allow_in_network_shed = false;
  /// Victim policy for the in-network half (see QueueShedder).
  bool cost_aware_shed = false;
  /// One-step-ahead arrival-rate forecast feeding the actuator (default:
  /// the paper's last-value estimate, Eq. 13).
  PredictorKind predictor = PredictorKind::kLastValue;
  /// When set, every finished control period is published to the
  /// telemetry timeline sinks (streaming files + SSE) as it happens,
  /// instead of only being exported after the run. Not owned.
  Telemetry* telemetry = nullptr;
};

/// The snapshot a sim engine presents to its RtMonitor at a period
/// boundary: the engine counters and queue state the monitor reads, plus
/// the loop's cumulative offered count and departure-delay sums (the entry
/// shedder sits before the engine, so the engine cannot count offered
/// tuples).
RtSample EngineSample(const Engine& engine, SimTime now, uint64_t offered,
                      double delay_sum, uint64_t delay_count);

/// The complete feedback control loop of Fig. 3: monitor -> controller ->
/// actuator (shedder) -> plant (engine). This is the paper's contribution
/// assembled into a reusable component: the sim adapter over PeriodPipeline,
/// with one slice whose plan the shedder applies inline. It samples the
/// engine through a one-shard RtMonitor, the monitor of every plant.
///
/// Wiring: route every source's arrivals into OnArrival (the loop applies
/// the shedder and injects survivors into the engine), call Start once
/// before Simulation::Run, and read the metrics afterwards.
class FeedbackLoop {
 public:
  /// All pointees must outlive the loop. The controller may be null, in
  /// which case no shedding control happens (open run: admit everything) —
  /// useful for system identification.
  FeedbackLoop(Simulation* sim, Engine* engine, LoadController* controller,
               Shedder* shedder, FeedbackLoopOptions options);

  FeedbackLoop(const FeedbackLoop&) = delete;
  FeedbackLoop& operator=(const FeedbackLoop&) = delete;

  /// Installs an additional per-departure observer (e.g. for system
  /// identification, which groups delays by arrival period). Must be
  /// called before Start.
  void SetDepartureObserver(DepartureCallback observer);

  /// Installs callbacks and schedules the periodic control events.
  void Start();

  /// Entry point for arriving tuples (wire ArrivalSource sinks here).
  void OnArrival(const Tuple& t);

  /// Changes the delay setpoint at runtime (Fig. 18).
  void SetTargetDelay(double yd);
  double target_delay() const { return target_delay_; }

  // --- Results ------------------------------------------------------------

  const QosAccumulator& qos() const { return qos_; }
  const Recorder& recorder() const { return pipeline_.recorder(); }
  const RtMonitor& monitor() const { return monitor_; }

  /// Current control-loop health verdict (see telemetry/health.h).
  /// Thread-safe — the telemetry server's /health handler calls it.
  HealthReport Health() const { return pipeline_.Health(); }

  /// Per-stream statistics, or nullptr when `track_sources` was 0.
  const PerSourceStats* per_source() const { return per_source_.get(); }

  uint64_t offered() const { return offered_; }
  uint64_t entry_shed() const { return entry_shed_; }

  /// Total shed tuples (entry drops + in-network shedding) over offered.
  double LossRatio() const { return Summary().loss_ratio; }

  /// End-of-run summary combining delay metrics and loss.
  QosSummary Summary() const;

 private:
  void ControlTick(SimTime now);

  Simulation* sim_;
  Engine* engine_;
  LoadController* controller_;
  Shedder* shedder_;
  FeedbackLoopOptions options_;

  RtMonitor monitor_;
  QosAccumulator qos_;
  PeriodPipeline pipeline_;
  std::unique_ptr<PerSourceStats> per_source_;

  DepartureCallback observer_;
  std::unique_ptr<RatePredictor> predictor_;
  /// The monitor's one-shard snapshot, kept so a tick allocates nothing.
  std::vector<RtSample> sample_;
  uint64_t prev_queue_shed_ = 0;  ///< Engine shed_lineages at last tick.
  double target_delay_;
  double delay_sum_ = 0.0;  ///< Cumulative departure delay, seconds.
  uint64_t delay_count_ = 0;
  uint64_t offered_ = 0;
  uint64_t entry_shed_ = 0;
  bool started_ = false;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_CORE_FEEDBACK_LOOP_H_
