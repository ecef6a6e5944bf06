#include "runner/experiment.h"

#include <cstdio>
#include <memory>
#include <string>

#include "common/macros.h"
#include "control/aurora_controller.h"
#include "control/baseline_controller.h"
#include "control/ctrl_controller.h"
#include "control/pi_controller.h"
#include "core/feedback_loop.h"
#include "engine/query_network.h"
#include "runner/networks.h"
#include "shedding/aurora_shedder.h"
#include "shedding/entry_shedder.h"
#include "shedding/queue_shedder.h"
#include "sim/simulation.h"
#include "telemetry/op_telemetry.h"

namespace ctrlshed {

RateTrace BuildArrivalTrace(const ExperimentConfig& config) {
  switch (config.workload) {
    case WorkloadKind::kWeb:
      return MakeWebTrace(config.duration, config.web, config.seed);
    case WorkloadKind::kPareto:
      return MakeParetoTrace(config.duration, config.pareto, config.seed);
    case WorkloadKind::kMmpp:
      return MakeMmppTrace(config.duration, config.mmpp, config.seed);
    case WorkloadKind::kStep:
      return MakeStepTrace(config.duration, config.step_at, config.step_low,
                           config.step_high);
    case WorkloadKind::kSine:
      return MakeSineTrace(config.duration, config.sine_lo, config.sine_hi,
                           config.sine_period);
    case WorkloadKind::kRamp:
      return MakeRampTrace(config.duration, config.ramp_from, config.ramp_to);
    case WorkloadKind::kConstant:
      return MakeConstantTrace(config.duration, config.constant_rate);
  }
  CS_CHECK_MSG(false, "unknown workload kind");
  return RateTrace();
}

std::string ExperimentConfigError(const ExperimentConfig& config) {
  // Written as !(x > 0) so that NaN fails too.
  const auto fraction = [](double x) { return x > 0.0 && x <= 1.0; };
  if (!(config.duration > 0.0)) return "duration must be positive";
  if (!(config.period > 0.0)) return "T (control period) must be positive";
  if (!(config.target_delay > 0.0)) return "yd (target delay) must be positive";
  if (!(config.capacity_rate > 0.0)) return "capacity must be positive";
  if (!fraction(config.headroom_est)) return "H (headroom) must be in (0, 1]";
  if (!fraction(config.headroom_true)) return "H_true must be in (0, 1]";
  if (!fraction(config.cost_ewma)) return "cost_ewma must be in (0, 1]";
  if (!(config.estimation_noise >= 0.0)) return "noise must be non-negative";
  for (const auto& [when, yd] : config.setpoint_schedule) {
    if (!(when >= 0.0 && when <= config.duration && yd > 0.0)) {
      return "setpoint changes must lie inside the run, with yd > 0";
    }
  }
  return "";
}

CtrlOptions CtrlOptionsFor(const ExperimentConfig& config, double headroom) {
  CtrlOptions opts;
  opts.gains = config.gains;
  opts.headroom = headroom;
  opts.feedback = config.ctrl_feedback;
  opts.anti_windup = config.anti_windup;
  return opts;
}

std::unique_ptr<LoadController> MakeController(const ExperimentConfig& config,
                                               double headroom) {
  switch (config.method) {
    case Method::kNone:
      return nullptr;
    case Method::kCtrl:
      return std::make_unique<CtrlController>(CtrlOptionsFor(config, headroom));
    case Method::kBaseline:
      return std::make_unique<BaselineController>(headroom);
    case Method::kAurora:
      return std::make_unique<AuroraController>(headroom);
    case Method::kPi:
      return std::make_unique<PiController>(headroom);
  }
  return nullptr;
}

std::unique_ptr<Shedder> MakeEntryShedder(const ExperimentConfig& config,
                                          int shard) {
  if (config.method == Method::kAurora) {
    return std::make_unique<AuroraQuotaShedder>();
  }
  return std::make_unique<EntryShedder>(
      config.seed + 2 + 7919 * static_cast<uint64_t>(shard));
}

CostMultiplierFn CostMultiplierFor(const ExperimentConfig& config) {
  if (!config.vary_cost) return nullptr;
  const auto trace = std::make_shared<const RateTrace>(
      MakeCostTrace(config.duration, config.cost_params, config.seed + 1));
  const double base = config.cost_params.base_ms;
  return [trace, base](SimTime t) { return trace->At(t) / base; };
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  CS_CHECK_MSG(ExperimentConfigError(config).empty(),
               "invalid config (validate with ExperimentConfigError first)");

  // The sim is single-threaded, so the whole run traces onto one track:
  // phase spans (build/run/summarize) plus the timeline export at the end.
  std::unique_ptr<Telemetry> telemetry = Telemetry::Open(config.telemetry);
  TraceBuffer* trace_buf =
      telemetry ? telemetry->RegisterThread("sim.main") : nullptr;
  ScopedSpan phase(trace_buf, "build_plant");

  // The model constant c: at nominal cost the engine sustains exactly
  // `capacity_rate` tuples/s, i.e. c = H_true / capacity.
  const double nominal_cost = config.headroom_true / config.capacity_rate;

  Simulation sim;
  QueryNetwork net;
  BuildIdentificationNetwork(&net, nominal_cost);
  Engine engine(&net, config.headroom_true,
                MakeScheduler(config.scheduler, config.seed + 5));
  engine.SetCostMultiplier(CostMultiplierFor(config));
  sim.AttachProcess(&engine);

  // Operator-granular instrumentation: op:<name> spans on the sim track,
  // per-operator processed/dropped counters for /metrics.
  std::unique_ptr<OperatorTelemetry> op_telemetry;
  if (telemetry) {
    op_telemetry =
        std::make_unique<OperatorTelemetry>(telemetry.get(), trace_buf, net);
    engine.SetObserver(op_telemetry.get());
    const double duration = config.duration;
    const double period = config.period;
    telemetry->SetStatusSource([duration, period] {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "{\"mode\":\"sim\",\"duration\":%g,\"period\":%g}",
                    duration, period);
      return std::string(buf);
    });
  }

  std::unique_ptr<LoadController> controller =
      MakeController(config, config.headroom_est);
  const bool in_network =
      config.use_queue_shedder && config.method != Method::kAurora;
  std::unique_ptr<Shedder> shedder;
  if (controller != nullptr && in_network) {
    shedder = std::make_unique<QueueShedder>(&engine, config.seed + 2,
                                             config.cost_aware_shedding);
  } else if (controller != nullptr) {
    shedder = MakeEntryShedder(config, 0);
  }

  FeedbackLoopOptions loop_opts;
  loop_opts.period = config.period;
  loop_opts.target_delay = config.target_delay;
  loop_opts.headroom = config.headroom_est;
  loop_opts.cost_ewma = config.cost_ewma;
  loop_opts.estimation_noise = config.estimation_noise;
  loop_opts.noise_seed = config.seed + 4;
  loop_opts.adapt_headroom = config.adapt_headroom;
  loop_opts.allow_in_network_shed = in_network;
  loop_opts.cost_aware_shed = config.cost_aware_shedding;
  loop_opts.telemetry = telemetry.get();
  FeedbackLoop loop(&sim, &engine, controller.get(), shedder.get(), loop_opts);
  // Lifetime: the explicit telemetry->Stop() below shuts the server down
  // before `loop` leaves scope (failures abort, never unwind).
  if (telemetry) telemetry->SetHealthSource([&loop] { return loop.Health(); });
  if (config.departure_observer) {
    loop.SetDepartureObserver(config.departure_observer);
  }
  std::unique_ptr<RatePredictor> predictor;
  if (config.predictor != PredictorKind::kLastValue) {
    predictor = MakePredictor(config.predictor);
    loop.SetRatePredictor(predictor.get());
  }
  loop.Start();

  for (const auto& [when, yd] : config.setpoint_schedule) {
    sim.Schedule(when, [&loop, yd = yd]() { loop.SetTargetDelay(yd); });
  }

  ArrivalSource source(0, BuildArrivalTrace(config), config.spacing,
                       config.seed + 3);
  source.Start(&sim, [&loop](const Tuple& t) { loop.OnArrival(t); });

  phase.Next("simulate");
  sim.Run(config.duration);
  phase.Next("summarize");

  ExperimentResult result;
  result.summary = loop.Summary();
  result.recorder = loop.recorder();
  result.arrival_trace = source.trace();
  result.nominal_cost = nominal_cost;
  result.health = loop.Health();
  phase.Next(nullptr);

  if (telemetry) {
    MetricsRegistry* reg = telemetry->metrics();
    reg->GetCounter("sim.offered")->Add(result.summary.offered);
    reg->GetCounter("sim.shed")->Add(result.summary.shed);
    reg->GetCounter("sim.departures")->Add(result.summary.departures);
    reg->GetGauge("sim.loss_ratio")->Set(result.summary.loss_ratio);
    reg->GetGauge("sim.mean_delay")->Set(result.summary.mean_delay);
    // The loop published timeline.csv / timeline.jsonl row by row;
    // nothing left to export here.
    telemetry->Stop();
  }
  return result;
}

}  // namespace ctrlshed
