#include "rt/rt_runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "engine/query_network.h"
#include "rt/cpu_affinity.h"
#include "rt/rt_clock.h"
#include "rt/rt_loop.h"
#include "rt/rt_source.h"
#include "runner/networks.h"

namespace ctrlshed {

std::string RtPlantError(const RtPlantConfig& c) {
  if (c.workers < 1 || c.workers > 64) return "workers must be in [1, 64]";
  if (!(c.time_compression > 0.0)) {
    return "compress (time compression) must be positive";
  }
  if (c.ring_capacity < 1 || c.ring_capacity > kRtMaxRingCapacity) {
    return "ring (capacity) must be in [1, " +
           std::to_string(kRtMaxRingCapacity) + "]";
  }
  if (c.batch < 1 || c.batch > 4096) return "batch must be in [1, 4096]";
  std::string pin_error;
  ParsePinCpus(c.pin_cpus, &pin_error);
  return pin_error;
}

std::string RtConfigError(const RtRunConfig& config) {
  const ExperimentConfig& base = config.base;
  const std::string base_error = ExperimentConfigError(base);
  if (!base_error.empty()) return base_error;
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
  return RtPlantError(config);
}

RtPlant::RtPlant(std::vector<RtShard> shards) : shards_(std::move(shards)) {
  CS_CHECK_MSG(!shards_.empty(), "need at least one shard");
  for (const RtShard& s : shards_) {
    CS_CHECK(s.engine != nullptr);
    CS_CHECK_MSG(s.engine->NominalEntryCost() ==
                     shards_[0].engine->NominalEntryCost(),
                 "shards must be homogeneous (same nominal entry cost)");
  }
}

std::vector<Shedder*> RtPlant::shedders() const {
  std::vector<Shedder*> out;
  for (const RtShard& s : shards_) out.push_back(s.shedder.get());
  return out;
}

void RtPlant::SetDepartureCallback(const DepartureCallback& cb) {
  for (const RtShard& s : shards_) s.engine->SetDepartureCallback(cb);
}

void RtPlant::Start() {
  for (const RtShard& s : shards_) s.engine->Start();
}

void RtPlant::Stop() {
  for (const RtShard& s : shards_) s.engine->Stop();
}

void RtPlant::Pump(SimTime now) {
  for (const RtShard& s : shards_) s.engine->Pump(now);
}

void RtPlant::Snapshot(SimTime now, std::vector<RtSample>* samples) const {
  samples->resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    (*samples)[i] = shards_[i].engine->stats()->Snapshot(now);
  }
}

void RtPlant::PostPlan(size_t i, const ActuationPlan& plan) {
  shards_[i].engine->stats()->PostPlan(plan, ++plan_seq_);
}

RtShardSummary RtPlant::Sum(size_t first, size_t last) const {
  RtShardSummary sum;
  for (size_t i = first; i < last; ++i) {
    const RtSample s = shards_[i].engine->stats()->Snapshot(/*now=*/0.0);
    sum.offered += s.offered;
    sum.entry_shed += s.entry_shed;
    sum.ring_dropped += s.ring_dropped;
    sum.queue_shed += s.queue_shed;
    sum.queue_shed_load += s.queue_shed_load;
    sum.departed += s.departed;
  }
  return sum;
}

LatencyHistogram RtPlant::PumpIntervals() const {
  LatencyHistogram merged{1e-6, 1e3, 1.08};
  for (const RtShard& s : shards_) merged.Merge(s.engine->pump_intervals());
  return merged;
}

RtPlant BuildRtPlant(const ExperimentConfig& base,
                     const RtPlantConfig& config, Telemetry* telemetry,
                     const RtClock* clock) {
  const double nominal_cost = base.headroom_true / base.capacity_rate;
  std::string pin_error;
  const PinPlan pin_plan = ParsePinCpus(config.pin_cpus, &pin_error);
  RtEngineOptions engine;
  engine.headroom = base.headroom_true;
  engine.ring_capacity = config.ring_capacity;
  engine.pacing_wall_seconds = config.pacing_wall_seconds;
  engine.batch = config.batch;
  engine.telemetry = telemetry;
  engine.per_shard_pump_metric = config.workers > 1;
  // One shared cost trace, sampled by each worker on its own clock.
  engine.cost_multiplier = CostMultiplierFor(base);
  std::vector<RtShard> shards;
  for (int i = 0; i < config.workers; ++i) {
    RtShard shard;
    shard.net = std::make_unique<QueryNetwork>();
    BuildIdentificationNetwork(shard.net.get(), nominal_cost);
    engine.shard_index = i;
    engine.pin_cpu = pin_plan.CpuForShard(i);
    engine.queue_shed_seed = base.seed + 6 + 7919 * static_cast<uint64_t>(i);
    shard.engine = std::make_unique<RtEngine>(shard.net.get(), clock,
                                              /*num_sources=*/1, engine);
    shard.shedder = MakeEntryShedder(base, i);
    shards.push_back(std::move(shard));
  }
  return RtPlant(std::move(shards));
}

RtRunResult RunRtExperiment(const RtRunConfig& config) {
  const ExperimentConfig& base = config.base;
  CS_CHECK_MSG(RtConfigError(config).empty(),
               "unsupported rt config (validate with RtConfigError first)");
  const int workers = config.workers;

  // The telemetry session outlives every thread that traces into it
  // (engine worker, controller, sources, this thread).
  std::unique_ptr<Telemetry> telemetry = Telemetry::Open(base.telemetry);
  TraceBuffer* main_buf =
      telemetry ? telemetry->RegisterThread("main") : nullptr;
  if (telemetry) {
    // Everything the status lambda captures is immutable for the run, so
    // the server thread can render it without synchronization.
    const double duration = base.duration;
    const double period = base.period;
    const double compression = config.time_compression;
    telemetry->SetStatusSource([duration, period, compression, workers] {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "{\"mode\":\"rt\",\"workers\":%d,\"duration\":%g,"
                    "\"period\":%g,\"compression\":%g}",
                    workers, duration, period, compression);
      return std::string(buf);
    });
  }
  ScopedSpan phase(main_buf, "setup");

  RtClock clock(config.time_compression);
  RtPlant plant = BuildRtPlant(base, config, telemetry.get(), &clock);

  // One controller drives the aggregate plant; its headroom belief is the
  // aggregate's effective headroom N*H (what the monitor reports against).
  std::unique_ptr<LoadController> controller =
      MakeController(base, static_cast<double>(workers) * base.headroom_est);

  RtLoopOptions lopts;
  lopts.period = base.period;
  lopts.target_delay = base.target_delay;
  lopts.headroom = base.headroom_est;
  lopts.cost_ewma = base.cost_ewma;
  lopts.adapt_headroom = base.adapt_headroom;
  lopts.queue_shed = base.use_queue_shedder;
  lopts.cost_aware_shed = base.cost_aware_shedding;
  lopts.predictor = base.predictor;
  lopts.telemetry = telemetry.get();
  RtLoop loop(&plant, &clock, controller.get(), lopts);
  // Lifetime: the explicit telemetry->Stop() below shuts the server down
  // before `loop` leaves scope (failures abort, never unwind).
  if (telemetry) telemetry->SetHealthSource([&loop] { return loop.Health(); });
  if (base.departure_observer) {
    loop.SetDepartureObserver(base.departure_observer);
  }

  // The offered load splits evenly across N replay sources, each driving
  // the sim's arrival process for its 1/N slice.
  std::vector<std::unique_ptr<RtArrivalSource>> sources;
  for (ArrivalSource& stream : ArrivalSourcesFor(base, workers)) {
    sources.push_back(std::make_unique<RtArrivalSource>(
        std::move(stream), config.pacing_wall_seconds));
    sources.back()->SetTelemetry(telemetry.get());
  }

  // Setpoint schedule, applied by the main thread between waits.
  std::vector<std::pair<SimTime, double>> schedule = base.setpoint_schedule;
  std::sort(schedule.begin(), schedule.end());

  const auto wall_start = std::chrono::steady_clock::now();
  clock.Start();
  loop.Start();
  for (auto& source : sources) {
    source->Start(&clock, [&loop](const Tuple* tuples, size_t n) {
      loop.OnArrivalBatch(tuples, n);
    });
  }

  phase.Next("replay");
  const auto stopping = [&config] { return StopRequested(config.stop); };
  for (const auto& [when, yd] : schedule) {
    SleepUntilWall(clock.WallDeadline(when), stopping);
    if (stopping()) break;
    loop.SetTargetDelay(yd);
  }
  SleepUntilWall(clock.WallDeadline(base.duration), stopping);

  // Teardown order: sources first (no new arrivals), then the loop (which
  // stops the controller thread, then the engine workers).
  phase.Next("teardown");
  for (auto& source : sources) source->Stop();
  loop.Stop();
  const auto wall_end = std::chrono::steady_clock::now();
  phase.Next(nullptr);

  RtRunResult result;
  result.summary = loop.Summary();
  result.recorder = loop.recorder();
  result.nominal_cost = plant.engine(0)->NominalEntryCost();
  result.ring_dropped = result.summary.ring_dropped;
  for (const auto& source : sources) {
    result.replay_wakeups += source->wakeups();
  }
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.workers = workers;
  for (size_t i = 0; i < plant.size(); ++i) {
    RtShardSummary shard = plant.Shard(i);
    shard.h_hat = loop.monitor().shard_h_hat()[i];
    shard.pump_intervals = plant.engine(i)->pump_intervals();
    result.shards.push_back(std::move(shard));
  }
  result.pump_intervals = plant.PumpIntervals();
  result.actuation_lateness = loop.actuation_lateness();
  result.health = loop.Health();

  result.interrupted = StopRequested(config.stop);

  // Telemetry epilogue: every thread has joined, so a final drain sees
  // everything. The loop published the timeline files row by row
  // (complete even on an interrupted run).
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
