#include "rt/rt_runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "control/aurora_controller.h"
#include "rt/cpu_affinity.h"
#include "control/baseline_controller.h"
#include "control/ctrl_controller.h"
#include "control/pi_controller.h"
#include "engine/query_network.h"
#include "rt/rt_clock.h"
#include "rt/rt_loop.h"
#include "rt/rt_source.h"
#include "runner/networks.h"
#include "shedding/aurora_shedder.h"
#include "shedding/entry_shedder.h"
#include "workload/traces.h"

namespace ctrlshed {

std::string RtConfigError(const RtRunConfig& config) {
  const ExperimentConfig& base = config.base;
  if (base.capacity_rate <= 0.0) {
    return "capacity must be positive";
  }
  if (base.estimation_noise != 0.0) {
    return "the rt runtime does not inject estimation noise (noise is a "
           "sim-only knob; real measurement noise comes free) — drop "
           "noise or use `ctrlshed run`";
  }
  if (base.use_queue_shedder && base.method == Method::kAurora) {
    return "the in-network queue shedder drives entry gates from "
           "ActuationPlans, which the Aurora quota shedder does not "
           "consume — use method=ctrl, baseline, or pi with queue_shed=1";
  }
  if (config.workers < 1 || config.workers > 64) {
    return "workers must be in [1, 64]";
  }
  if (config.time_compression <= 0.0) {
    return "time compression must be positive";
  }
  if (config.ring_capacity == 0) {
    return "ring capacity must be positive";
  }
  if (config.batch < 1 || config.batch > 4096) {
    return "batch must be in [1, 4096]";
  }
  std::string pin_error;
  ParsePinCpus(config.pin_cpus, &pin_error);
  if (!pin_error.empty()) return pin_error;
  return "";
}

RtRunResult RunRtExperiment(const RtRunConfig& config) {
  const ExperimentConfig& base = config.base;
  CS_CHECK_MSG(RtConfigError(config).empty(),
               "unsupported rt config (validate with RtConfigError first)");
  const int workers = config.workers;

  const double nominal_cost = base.headroom_true / base.capacity_rate;

  // The telemetry session outlives every thread that traces into it
  // (engine worker, controller, sources, this thread).
  std::unique_ptr<Telemetry> telemetry = Telemetry::Open(base.telemetry);
  TraceBuffer* main_buf =
      telemetry ? telemetry->RegisterThread("main") : nullptr;
  if (telemetry && !telemetry->dir().empty()) {
    // Post-mortem dumps land next to the run's other telemetry files.
    SetFlightDumpPath(telemetry->dir() + "/ctrlshed.flightdump.json");
  }
  if (telemetry) {
    // Everything the status lambda captures is immutable for the run, so
    // the server thread can render it without synchronization.
    const double duration = base.duration;
    const double period = base.period;
    const double compression = config.time_compression;
    const int n_workers = config.workers;
    telemetry->SetStatusSource([duration, period, compression, n_workers] {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "{\"mode\":\"rt\",\"workers\":%d,\"duration\":%g,"
                    "\"period\":%g,\"compression\":%g}",
                    n_workers, duration, period, compression);
      return std::string(buf);
    });
  }
  std::optional<ScopedSpan> phase;
  phase.emplace(main_buf, "setup");

  RtClock clock(config.time_compression);

  // Fig. 14 time-varying cost, ported to rt: one shared trace (same seed
  // stream as the sim wiring), sampled by each worker on its own clock as
  // the engine executes. RateTrace::At is read-only after construction, so
  // sharing one instance across worker threads is safe. Declared before
  // the engines so it outlives them.
  RateTrace cost_trace;
  CostMultiplierFn cost_multiplier;
  if (base.vary_cost) {
    cost_trace = MakeCostTrace(base.duration, base.cost_params,
                               base.seed + 1);
    const double cost_base = base.cost_params.base_ms;
    cost_multiplier = [&cost_trace, cost_base](SimTime t) {
      return cost_trace.At(t) / cost_base;
    };
  }

  // The partitioned plant: one network/engine pair per shard, each with
  // one local source (global source i is shard i's local source 0).
  std::vector<std::unique_ptr<QueryNetwork>> nets;
  std::vector<std::unique_ptr<RtEngine>> engines;
  nets.reserve(static_cast<size_t>(workers));
  engines.reserve(static_cast<size_t>(workers));
  std::string pin_error;
  const PinPlan pin_plan = ParsePinCpus(config.pin_cpus, &pin_error);
  for (int i = 0; i < workers; ++i) {
    nets.push_back(std::make_unique<QueryNetwork>());
    BuildIdentificationNetwork(nets.back().get(), nominal_cost);
    RtEngineOptions eopts;
    eopts.headroom = base.headroom_true;
    eopts.ring_capacity = config.ring_capacity;
    eopts.cost_mode = config.cost_mode;
    eopts.pacing_wall_seconds = config.pacing_wall_seconds;
    eopts.batch = config.batch;
    eopts.telemetry = telemetry.get();
    eopts.shard_index = i;
    eopts.per_shard_pump_metric = workers > 1;
    eopts.cost_multiplier = cost_multiplier;
    eopts.pin_cpu = pin_plan.CpuForShard(i);
    // A distinct seed stream from the entry shedders' (seed+2+7919i): the
    // worker's victim RNG must never share state across threads.
    eopts.queue_shed_seed = base.seed + 6 + 7919 * static_cast<uint64_t>(i);
    engines.push_back(std::make_unique<RtEngine>(
        nets.back().get(), &clock, /*num_sources=*/1, eopts));
  }

  // One controller drives the aggregate plant; its headroom belief is the
  // aggregate's effective headroom N*H (what the monitor reports against).
  const double headroom_agg = static_cast<double>(workers) * base.headroom_est;
  std::unique_ptr<LoadController> controller;
  switch (base.method) {
    case Method::kNone:
      break;
    case Method::kCtrl: {
      CtrlOptions opts;
      opts.gains = base.gains;
      opts.headroom = headroom_agg;
      opts.feedback = base.ctrl_feedback;
      opts.anti_windup = base.anti_windup;
      controller = std::make_unique<CtrlController>(opts);
      break;
    }
    case Method::kBaseline:
      controller = std::make_unique<BaselineController>(headroom_agg);
      break;
    case Method::kAurora:
      controller = std::make_unique<AuroraController>(headroom_agg);
      break;
    case Method::kPi:
      controller = std::make_unique<PiController>(headroom_agg);
      break;
  }

  // Per-shard entry shedders (decorrelated streams; i = 0 reproduces the
  // historical single-shedder seed).
  std::vector<std::unique_ptr<Shedder>> shedders;
  std::vector<RtShard> shards;
  for (int i = 0; i < workers; ++i) {
    RtShard shard;
    shard.engine = engines[static_cast<size_t>(i)].get();
    if (controller != nullptr) {
      if (base.method == Method::kAurora) {
        shedders.push_back(std::make_unique<AuroraQuotaShedder>());
      } else {
        shedders.push_back(
            std::make_unique<EntryShedder>(base.seed + 2 + 7919 * i));
      }
      shard.shedder = shedders.back().get();
    }
    shards.push_back(shard);
  }

  RtLoopOptions lopts;
  lopts.period = base.period;
  lopts.target_delay = base.target_delay;
  lopts.headroom = base.headroom_est;
  lopts.cost_ewma = base.cost_ewma;
  lopts.adapt_headroom = base.adapt_headroom;
  lopts.queue_shed = base.use_queue_shedder;
  lopts.cost_aware_shed = base.cost_aware_shedding;
  lopts.adaptive_quantum = config.batch_adaptive;
  lopts.telemetry = telemetry.get();
  RtLoop loop(std::move(shards), &clock, controller.get(), lopts);
  if (telemetry && telemetry->server() != nullptr) {
    // Lifetime: the explicit telemetry->Stop() below shuts the server
    // down before `loop` leaves scope (failures abort, never unwind).
    telemetry->server()->SetHealthCallback([&loop] {
      const HealthReport r = loop.Health();
      return std::make_pair(r.HttpStatus(), r.ToJson());
    });
  }
  if (base.departure_observer) {
    loop.SetDepartureObserver(base.departure_observer);
  }
  std::unique_ptr<RatePredictor> predictor;
  if (base.predictor != PredictorKind::kLastValue) {
    predictor = MakePredictor(base.predictor);
    loop.SetRatePredictor(predictor.get());
  }

  // The offered load splits evenly across N replay sources — the same
  // aggregate trace, each source drawing its 1/N slice with its own seed.
  // At N = 1 the trace is passed through unscaled (identical arrivals to
  // the historical runtime).
  const RateTrace full_trace = BuildArrivalTrace(base);
  std::vector<std::unique_ptr<RtArrivalSource>> sources;
  for (int i = 0; i < workers; ++i) {
    const RateTrace trace =
        workers == 1 ? full_trace
                     : full_trace.Scaled(1.0 / static_cast<double>(workers));
    sources.push_back(std::make_unique<RtArrivalSource>(
        i, trace, base.spacing, base.seed + 3 + i));
    sources.back()->SetTelemetry(telemetry.get());
  }

  // Setpoint schedule, applied by the main thread between waits.
  std::vector<std::pair<SimTime, double>> schedule = base.setpoint_schedule;
  std::sort(schedule.begin(), schedule.end());
  for (const auto& [when, yd] : schedule) {
    CS_CHECK_MSG(when >= 0.0 && when <= base.duration,
                 "setpoint change outside the run");
    CS_CHECK_MSG(yd > 0.0, "target delay must be positive");
  }

  const auto wall_start = std::chrono::steady_clock::now();
  clock.Start();
  loop.Start();
  for (auto& source : sources) {
    source->Start(&clock, [&loop](const Tuple* tuples, size_t n) {
      loop.OnArrivalBatch(tuples, n);
    });
  }

  phase.emplace(main_buf, "replay");
  const auto stopping = [&config] { return StopRequested(config.stop); };
  for (const auto& [when, yd] : schedule) {
    SleepUntilWall(clock.WallDeadline(when), stopping);
    if (stopping()) break;
    loop.SetTargetDelay(yd);
  }
  SleepUntilWall(clock.WallDeadline(base.duration), stopping);

  // Teardown order: sources first (no new arrivals), then the loop (which
  // stops the controller thread, then the engine workers).
  phase.emplace(main_buf, "teardown");
  for (auto& source : sources) source->Stop();
  loop.Stop();
  const auto wall_end = std::chrono::steady_clock::now();
  phase.reset();

  RtRunResult result;
  result.summary = loop.Summary();
  result.recorder = loop.recorder();
  result.arrival_trace = full_trace;
  result.nominal_cost = nominal_cost;
  result.ring_dropped = loop.ring_dropped();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.workers = workers;
  for (size_t i = 0; i < engines.size(); ++i) {
    const RtSharedStats* stats = engines[i]->stats();
    RtShardSummary shard;
    shard.offered = stats->offered.load(std::memory_order_relaxed);
    shard.entry_shed = stats->entry_shed.load(std::memory_order_relaxed);
    shard.ring_dropped = stats->ring_dropped.load(std::memory_order_relaxed);
    shard.queue_shed = stats->queue_shed.load(std::memory_order_relaxed);
    shard.queue_shed_load =
        stats->queue_shed_load.load(std::memory_order_relaxed);
    shard.departed = stats->departed.load(std::memory_order_relaxed);
    shard.h_hat = loop.monitor().shard_h_hat()[i];
    shard.pump_intervals = engines[i]->pump_intervals();
    result.shards.push_back(std::move(shard));
    result.pump_intervals.Merge(engines[i]->pump_intervals());
  }
  result.actuation_lateness = loop.actuation_lateness();
  result.health = loop.Health();

  result.interrupted = StopRequested(config.stop);

  // Telemetry epilogue: every thread has joined, so a final drain sees
  // everything. The timeline files were streamed row by row through the
  // loop's TimelineSink path (complete even on an interrupted run).
  if (telemetry) {
    if (telemetry->server() != nullptr) {
      result.telemetry_port = telemetry->server()->port();
    }
    telemetry->Stop();
    result.timeline_rows = telemetry->timeline_rows();
    result.trace_events = telemetry->trace_events();
    result.trace_dropped = telemetry->trace_dropped();
    result.sse_clients = telemetry->sse_clients_accepted();
    result.sse_rows_published = telemetry->sse_rows_published();
    result.sse_rows_dropped = telemetry->sse_rows_dropped();
  }
  return result;
}

}  // namespace ctrlshed
