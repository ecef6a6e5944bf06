#include "runner/experiment.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "control/aurora_controller.h"
#include "control/baseline_controller.h"
#include "control/ctrl_controller.h"
#include "control/pi_controller.h"
#include "runner/networks.h"
#include "shedding/aurora_shedder.h"
#include "shedding/entry_shedder.h"
#include "shedding/queue_shedder.h"
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

std::vector<ArrivalSource> ArrivalSourcesFor(const ExperimentConfig& config,
                                             int n, int first_index,
                                             double rate_scale) {
  CS_CHECK_MSG(n >= 1, "need at least one arrival source");
  const RateTrace full = BuildArrivalTrace(config);
  const double scale = rate_scale / static_cast<double>(n);
  std::vector<ArrivalSource> sources;
  sources.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    sources.emplace_back(first_index + i,
                         scale == 1.0 ? full : full.Scaled(scale),
                         config.spacing,
                         config.seed + 3 + static_cast<uint64_t>(i));
  }
  return sources;
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
  if (!(config.pareto.beta > 0.0)) return "beta must be positive";
  if (!(config.constant_rate >= 0.0 && std::isfinite(config.constant_rate))) {
    return "rate must be finite and non-negative";
  }
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

double NominalCost(const ExperimentConfig& config) {
  QueryNetwork net;
  BuildIdentificationNetwork(&net, config.headroom_true / config.capacity_rate);
  return net.MeanEntryCost();
}

FeedbackLoopOptions SimLoopOptions(const ExperimentConfig& config) {
  FeedbackLoopOptions o;
  o.period = config.period;
  o.target_delay = config.target_delay;
  o.headroom = config.headroom_est;
  o.cost_ewma = config.cost_ewma;
  o.estimation_noise = config.estimation_noise;
  o.noise_seed = config.seed + 4;
  o.adapt_headroom = config.adapt_headroom;
  o.allow_in_network_shed =
      config.use_queue_shedder && config.method != Method::kAurora;
  o.cost_aware_shed = config.cost_aware_shedding;
  o.predictor = config.predictor;
  return o;
}

namespace {
// The sim loop's actuator (see SimLoop). The queue shedder executes the
// loop's in-network plans; without them it would plan its own queue
// removal and the periods would read entry.
std::unique_ptr<Shedder> SimActuator(const ExperimentConfig& config,
                                     const FeedbackLoopOptions& options,
                                     Engine* engine,
                                     std::unique_ptr<Shedder> own) {
  if (config.method == Method::kNone) return nullptr;
  if (own != nullptr) return own;
  if (options.allow_in_network_shed) {
    return std::make_unique<QueueShedder>(engine, config.seed + 2,
                                          config.cost_aware_shedding);
  }
  return MakeEntryShedder(config, 0);
}
}  // namespace

SimLoop::SimLoop(Simulation* sim, QueryNetwork* network,
                 const ExperimentConfig& config, FeedbackLoopOptions options,
                 std::unique_ptr<Shedder> shedder)
    : engine_(network, config.headroom_true,
              MakeScheduler(config.scheduler, config.seed + 5)),
      controller_(MakeController(config, config.headroom_est)),
      shedder_(SimActuator(config, options, &engine_, std::move(shedder))),
      loop_(sim, &engine_, controller_.get(), shedder_.get(), options) {
  engine_.SetCostMultiplier(CostMultiplierFor(config));
  sim->AttachProcess(&engine_);
  if (config.departure_observer) {
    loop_.SetDepartureObserver(config.departure_observer);
  }
  loop_.Start();
  for (const auto& [when, yd] : config.setpoint_schedule) {
    sim->Schedule(when, [this, yd = yd]() { loop_.SetTargetDelay(yd); });
  }
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

  // At nominal cost the engine sustains exactly `capacity_rate` tuples/s.
  Simulation sim;
  QueryNetwork net;
  BuildIdentificationNetwork(&net, config.headroom_true / config.capacity_rate);
  FeedbackLoopOptions loop_opts = SimLoopOptions(config);
  loop_opts.telemetry = telemetry.get();
  SimLoop plant(&sim, &net, config, loop_opts);
  FeedbackLoop& loop = plant.loop();

  // Operator-granular instrumentation: op:<name> spans on the sim track,
  // per-operator processed/dropped counters for /metrics.
  std::unique_ptr<OperatorTelemetry> op_telemetry;
  if (telemetry) {
    op_telemetry =
        std::make_unique<OperatorTelemetry>(telemetry.get(), trace_buf, net);
    plant.engine().SetObserver(op_telemetry.get());
    const double duration = config.duration;
    const double period = config.period;
    telemetry->SetStatusSource([duration, period] {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "{\"mode\":\"sim\",\"duration\":%g,\"period\":%g}",
                    duration, period);
      return std::string(buf);
    });
    // Lifetime: the explicit telemetry->Stop() below shuts the server down
    // before `loop` leaves scope (failures abort, never unwind).
    telemetry->SetHealthSource([&loop] { return loop.Health(); });
  }

  ArrivalSource source = std::move(ArrivalSourcesFor(config, 1)[0]);
  source.Start(&sim, [&loop](const Tuple& t) { loop.OnArrival(t); });

  phase.Next("simulate");
  sim.Run(config.duration);
  phase.Next("summarize");

  ExperimentResult result;
  result.summary = loop.Summary();
  result.recorder = loop.recorder();
  result.arrival_trace = source.trace();
  result.nominal_cost = plant.engine().NominalEntryCost();
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
