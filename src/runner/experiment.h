#ifndef CTRLSHED_RUNNER_EXPERIMENT_H_
#define CTRLSHED_RUNNER_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "control/ctrl_controller.h"
#include "control/pole_placement.h"
#include "control/rate_predictor.h"
#include "core/feedback_loop.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "metrics/qos_metrics.h"
#include "metrics/recorder.h"
#include "shedding/shedder.h"
#include "sim/simulation.h"
#include "telemetry/health.h"
#include "telemetry/telemetry.h"
#include "workload/arrival_source.h"
#include "workload/traces.h"

namespace ctrlshed {

/// Load shedding policy under test.
enum class Method {
  kNone,      ///< No shedding (uncontrolled run; system identification).
  kCtrl,      ///< The paper's pole-placement feedback controller.
  kBaseline,  ///< Naive model-inverting feedback (paper's BASELINE).
  kAurora,    ///< Open-loop Aurora/Borealis shedder.
  kPi,        ///< Textbook PI controller on the same feedback (extension).
};

/// Input workload shape.
enum class WorkloadKind {
  kWeb, kPareto, kMmpp, kStep, kSine, kRamp, kConstant,
};

/// Full description of one closed-loop experiment. Defaults reproduce the
/// paper's standard setup: 400 s runs, T = 1 s, yd = 2 s, H = 0.97, an
/// identification network whose capacity threshold is ~190 tuples/s.
struct ExperimentConfig {
  Method method = Method::kCtrl;
  WorkloadKind workload = WorkloadKind::kWeb;

  SimTime duration = 400.0;
  SimTime period = 1.0;        ///< Control period T.
  double target_delay = 2.0;   ///< yd, seconds.

  double headroom_true = 0.97; ///< Engine's actual headroom.
  double headroom_est = 0.97;  ///< H the monitor/controllers believe in.
  double capacity_rate = 190.0;///< Tuples/s the CPU can sustain at nominal
                               ///< cost; pins the model constant c.

  bool use_queue_shedder = false;  ///< In-network shedding actuator.
  bool cost_aware_shedding = false;  ///< LSRM-flavored victim selection.
  bool vary_cost = false;          ///< Apply the Fig. 14 cost trace.
  CostTraceParams cost_params;
  SchedulerKind scheduler = SchedulerKind::kRoundRobin;

  // Workload parameters (the member matching `workload` is used).
  ParetoTraceParams pareto;
  WebTraceParams web;
  MmppTraceParams mmpp;
  double step_low = 10.0, step_high = 300.0;
  SimTime step_at = 10.0;
  double sine_lo = 0.0, sine_hi = 400.0;
  SimTime sine_period = 100.0;
  double ramp_from = 100.0, ramp_to = 400.0;
  double constant_rate = 150.0;
  ArrivalSource::Spacing spacing = ArrivalSource::Spacing::kPoisson;

  // Controller details.
  ControllerGains gains = DesignPolePlacement(0.7, 0.7, -0.8);
  bool anti_windup = true;
  FeedbackSignal ctrl_feedback = FeedbackSignal::kVirtualQueue;
  /// Arrival-rate forecast feeding the actuator (Eq. 13 uses last-value).
  PredictorKind predictor = PredictorKind::kLastValue;
  /// Online headroom estimation (adaptive-control extension).
  bool adapt_headroom = false;
  /// 1.0 = use the raw per-period cost measurement, the paper's
  /// "estimate c(k) with c(k-1)". Lower values smooth it (extension).
  double cost_ewma = 1.0;
  /// Cost-estimation noise (log-sigma). The performance comparisons use
  /// 0.1 to match the ~10% estimation-error band real Borealis shows in
  /// the paper's Figs. 6B/7B; identification runs use 0.
  double estimation_noise = 0.0;

  /// Setpoint schedule: (time, new yd) pairs applied during the run
  /// (Fig. 18 uses {(150, 3.0), (300, 5.0)} with target_delay = 1.0).
  std::vector<std::pair<SimTime, double>> setpoint_schedule;

  /// Optional per-departure observer (system identification).
  DepartureCallback departure_observer;

  /// Observability: an empty dir disables everything; a set dir makes the
  /// run write trace.json (spans), metrics.jsonl (periodic registry
  /// snapshots), and timeline.csv/.jsonl (the per-period control-loop
  /// export) into it. Shared by the sim and rt harnesses.
  TelemetryOptions telemetry;

  uint64_t seed = 42;
};

/// Everything a bench/test needs from one run.
struct ExperimentResult {
  QosSummary summary;
  Recorder recorder;        ///< Per-period closed-loop trace.
  RateTrace arrival_trace;  ///< The offered-rate trace that was used.
  double nominal_cost = 0.0;  ///< Model constant c of the built network.
  HealthReport health;      ///< Health verdict at the end of the run.
};

/// Validates the knobs every runner shares: duration, T, yd, capacity and
/// the Pareto beta positive; H, H_true and cost_ewma in (0, 1]; noise
/// non-negative; the constant rate finite and non-negative; every setpoint
/// change inside the run with yd > 0. Returns an empty string
/// when runnable, else a message naming the offending knob. CLIs exit 2
/// on a non-empty result; the runners CS_CHECK it.
std::string ExperimentConfigError(const ExperimentConfig& config);

/// Builds the identification network and a SimLoop over it, feeds it the
/// workload `config` describes, runs it for `config.duration` simulated
/// seconds, and returns the metrics.
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// The arrival-rate trace `config` describes (used by RunExperiment, and
/// exposed for the Fig. 13 trace plots).
RateTrace BuildArrivalTrace(const ExperimentConfig& config);

/// The run's stream split, which the sim, rt, cluster sim and `ctrlshed
/// feed` all replay: `n` sources, source i with index first_index + i and
/// seed seed + 3 + i, its trace the aggregate trace scaled by
/// rate_scale / n (unscaled when that is 1.0). At n = 1 this is the sim's
/// one source.
std::vector<ArrivalSource> ArrivalSourcesFor(const ExperimentConfig& config,
                                             int n, int first_index = 0,
                                             double rate_scale = 1.0);

// --- The run recipe every runner (sim, rt, cluster) assembles from --------

/// The CTRL controller options of `config`, believing headroom `headroom`.
CtrlOptions CtrlOptionsFor(const ExperimentConfig& config, double headroom);

/// The controller `config.method` names, believing headroom `headroom`
/// (a sharded plant passes its aggregate N*H); null for Method::kNone.
std::unique_ptr<LoadController> MakeController(const ExperimentConfig& config,
                                               double headroom);

/// The entry shedder of shard `shard`: Aurora's quota shedder (it sheds an
/// absolute load amount via drop boxes, Eq. 7/8, not a drop fraction),
/// else an EntryShedder seeded seed + 2 + 7919 * shard.
std::unique_ptr<Shedder> MakeEntryShedder(const ExperimentConfig& config,
                                          int shard);

/// The Fig. 14 time-varying cost multiplier: one cost trace seeded
/// seed + 1, owned by the returned function and read-only, so copies may
/// run on any thread. Empty when `vary_cost` is off.
CostMultiplierFn CostMultiplierFor(const ExperimentConfig& config);

/// The model constant c (Eq. 2/11) of `config`'s plant: the mean entry
/// cost of its identification network, i.e. what every engine over that
/// network reports as NominalEntryCost(). For runners holding no engine.
double NominalCost(const ExperimentConfig& config);

/// The FeedbackLoop options of `config`: T, yd, H, cost smoothing and
/// noise (seeded seed + 4), headroom adaptation, the rate predictor, and
/// in-network plans when `use_queue_shedder` is set and the method is not
/// Aurora.
FeedbackLoopOptions SimLoopOptions(const ExperimentConfig& config);

/// The sim's Fig. 3 loop over a caller's finalized network, as
/// RunExperiment and StreamSystem assemble it: an Engine attached to `sim`
/// (H_true, `config.scheduler` seeded seed + 5, the Fig. 14 cost
/// multiplier), MakeController's controller, the actuator, a started
/// FeedbackLoop with the departure observer, and the setpoint schedule.
/// The actuator is the caller's `shedder` if given, else a QueueShedder
/// (seed + 2) when `options` plan in-network, else MakeEntryShedder(config,
/// 0); none without a controller. Feed arrivals to loop().OnArrival.
class SimLoop {
 public:
  /// `sim` and `network` must outlive the loop.
  SimLoop(Simulation* sim, QueryNetwork* network,
          const ExperimentConfig& config, FeedbackLoopOptions options,
          std::unique_ptr<Shedder> shedder = nullptr);
  SimLoop(const SimLoop&) = delete;
  SimLoop& operator=(const SimLoop&) = delete;

  Engine& engine() { return engine_; }
  FeedbackLoop& loop() { return loop_; }

 private:
  Engine engine_;
  std::unique_ptr<LoadController> controller_;
  std::unique_ptr<Shedder> shedder_;
  FeedbackLoop loop_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_RUNNER_EXPERIMENT_H_
