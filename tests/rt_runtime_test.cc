// End-to-end tests of the real-time runtime: real threads, real clock,
// compressed time so each test costs well under a second of wall time.
// Assertions are deliberately loose — scheduling noise is the point of the
// subsystem — with the tight tracking gate living in bench/rt_soak.

#include "rt/rt_runtime.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rt/rt_clock.h"
#include "rt/rt_source.h"
#include "sim/simulation.h"
#include "telemetry/timeline.h"

namespace ctrlshed {
namespace {

TEST(RtClockTest, CompressionMapsTraceToWall) {
  RtClock clock(40.0);
  clock.Start();
  // 40 trace seconds = 1 wall second; deadlines are consistent with the
  // duration conversion.
  const auto d1 = clock.WallDeadline(40.0);
  const auto d2 = clock.WallDeadline(80.0);
  const auto gap = std::chrono::duration<double>(d2 - d1).count();
  EXPECT_NEAR(gap, 1.0, 1e-6);
  EXPECT_NEAR(std::chrono::duration<double>(clock.WallDuration(4.0)).count(),
              0.1, 1e-6);
  EXPECT_GE(clock.Now(), 0.0);
}

TEST(RtArrivalSourceTest, WallClockReplayDeliversTheSimsTuples) {
  // The same split replayed twice: once as simulation events, once by the
  // wall-clock replay threads at 2000x (60 trace seconds in ~30 ms), so
  // the threads fall behind and deliver catch-up batches.
  ExperimentConfig web;
  web.workload = WorkloadKind::kWeb;
  web.duration = 60.0;
  constexpr size_t kSources = 2;

  std::vector<Tuple> sim_tuples[kSources];
  Simulation sim;
  std::vector<ArrivalSource> sim_sources = ArrivalSourcesFor(web, kSources);
  for (ArrivalSource& source : sim_sources) {
    source.Start(&sim, [&sim_tuples](const Tuple& t) {
      sim_tuples[t.source].push_back(t);
    });
  }
  sim.Run(web.duration);

  std::vector<Tuple> rt_tuples[kSources];
  std::vector<size_t> batches[kSources];
  std::atomic<size_t> delivered{0};
  RtClock clock(2000.0);
  std::vector<std::unique_ptr<RtArrivalSource>> replays;
  for (ArrivalSource& stream : ArrivalSourcesFor(web, kSources)) {
    replays.push_back(std::make_unique<RtArrivalSource>(std::move(stream)));
  }
  clock.Start();
  for (auto& replay : replays) {
    // Each sink runs on its own source's thread and touches only that
    // source's vectors; Stop() joins before they are read.
    replay->Start(&clock, [&](const Tuple* t, size_t n) {
      batches[t[0].source].push_back(n);
      rt_tuples[t[0].source].insert(rt_tuples[t[0].source].end(), t, t + n);
      delivered.fetch_add(n);
    });
  }
  // Wait for the whole trace (generously: a sanitizer build is slow), so
  // Stop() cuts nothing short.
  const size_t expected = sim_tuples[0].size() + sim_tuples[1].size();
  SleepUntilWall(std::chrono::steady_clock::now() + std::chrono::seconds(60),
                 [&] { return delivered.load() >= expected; });
  for (auto& replay : replays) replay->Stop();

  for (size_t s = 0; s < kSources; ++s) {
    SCOPED_TRACE("source " + std::to_string(s));
    ASSERT_GT(sim_tuples[s].size(), 1000u);
    ASSERT_EQ(rt_tuples[s].size(), sim_tuples[s].size());
    for (size_t i = 0; i < sim_tuples[s].size(); ++i) {
      const Tuple& a = rt_tuples[s][i];
      const Tuple& b = sim_tuples[s][i];
      ASSERT_EQ(a.source, b.source) << "tuple " << i;
      ASSERT_EQ(a.arrival_time, b.arrival_time) << "tuple " << i;
      ASSERT_EQ(a.value, b.value) << "tuple " << i;
      ASSERT_EQ(a.aux, b.aux) << "tuple " << i;
    }
    size_t largest = 0;
    for (size_t n : batches[s]) {
      EXPECT_GE(n, 1u);
      EXPECT_LE(n, kRtArrivalBatchMax);
      largest = std::max(largest, n);
    }
    EXPECT_GT(largest, 1u);
  }
}

TEST(RtArrivalSourceTest, PacedReplayWakesAtMostOncePerPacingInterval) {
  // A dense stream: 2000 tuples/s for 20 trace s at 50x is 100k tuples per
  // wall second, ~50 per 500 µs pacing interval.
  ExperimentConfig constant;
  constant.workload = WorkloadKind::kConstant;
  constant.constant_rate = 2000.0;
  constant.duration = 20.0;
  constexpr double kPacing = 500e-6;

  std::vector<Tuple> sim_tuples;
  Simulation sim;
  std::vector<ArrivalSource> sim_sources = ArrivalSourcesFor(constant, 1);
  sim_sources[0].Start(&sim,
                       [&](const Tuple& t) { sim_tuples.push_back(t); });
  sim.Run(constant.duration);
  const size_t expected = sim_tuples.size();
  ASSERT_GT(expected, 30000u);

  RtClock clock(50.0);
  RtArrivalSource replay(std::move(ArrivalSourcesFor(constant, 1)[0]),
                         kPacing);
  std::vector<Tuple> rt_tuples;
  size_t sink_calls = 0;
  size_t early = 0;
  std::atomic<size_t> delivered{0};
  clock.Start();
  const auto wall_start = std::chrono::steady_clock::now();
  // The sink runs on the replay thread; Stop() joins before the counters
  // and vectors are read.
  replay.Start(&clock, [&](const Tuple* t, size_t n) {
    const SimTime now = clock.Now();
    for (size_t i = 0; i < n; ++i) {
      if (t[i].arrival_time > now + 1e-6) ++early;
    }
    ++sink_calls;
    rt_tuples.insert(rt_tuples.end(), t, t + n);
    delivered.fetch_add(n);
  });
  SleepUntilWall(std::chrono::steady_clock::now() + std::chrono::seconds(60),
                 [&] { return delivered.load() >= expected; });
  replay.Stop();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();

  EXPECT_EQ(early, 0u) << "tuples delivered before their trace time";
  EXPECT_GT(replay.wakeups(), 0u);
  EXPECT_LE(static_cast<double>(replay.wakeups()), wall / kPacing + 1.0)
      << "over " << wall << " wall s";
  EXPECT_LE(sink_calls, expected / kRtArrivalBatchMax + replay.wakeups());
  ASSERT_EQ(rt_tuples.size(), expected);
  for (size_t i = 0; i < expected; ++i) {
    const Tuple& a = rt_tuples[i];
    const Tuple& b = sim_tuples[i];
    ASSERT_EQ(a.source, b.source) << "tuple " << i;
    ASSERT_EQ(a.arrival_time, b.arrival_time) << "tuple " << i;
    ASSERT_EQ(a.value, b.value) << "tuple " << i;
    ASSERT_EQ(a.aux, b.aux) << "tuple " << i;
  }
}

RtRunConfig BaseConfig() {
  RtRunConfig cfg;
  cfg.base.workload = WorkloadKind::kConstant;
  cfg.base.seed = 7;
  cfg.time_compression = 40.0;
  return cfg;
}

TEST(RtRuntimeTest, UnderloadOpenRunSmoke) {
  RtRunConfig cfg = BaseConfig();
  cfg.base.method = Method::kNone;
  cfg.base.constant_rate = 100.0;  // about half the 190 t/s capacity
  cfg.base.duration = 8.0;

  RtRunResult r = RunRtExperiment(cfg);

  // Poisson(100/s * 8s) = 800 expected offers; allow wide slack.
  EXPECT_GT(r.summary.offered, 600u);
  EXPECT_LT(r.summary.offered, 1000u);
  // Underloaded and uncontrolled: nothing shed anywhere.
  EXPECT_EQ(r.summary.shed, 0u);
  EXPECT_EQ(r.ring_dropped, 0u);
  EXPECT_DOUBLE_EQ(r.summary.loss_ratio, 0.0);
  // Nearly everything drains (a few tuples may be in flight at stop).
  EXPECT_GT(r.summary.departures,
            static_cast<uint64_t>(0.8 * static_cast<double>(r.summary.offered)));
  // An underloaded engine keeps delays near the per-tuple cost, far from
  // the overload regime.
  EXPECT_LT(r.summary.mean_delay, 0.5);
  EXPECT_GT(r.recorder.rows().size(), 4u);
}

TEST(RtRuntimeTest, OverloadControllerTracksSetpoint) {
  RtRunConfig cfg = BaseConfig();
  cfg.base.method = Method::kCtrl;
  cfg.base.constant_rate = 380.0;  // sustained 2x overload
  cfg.base.duration = 15.0;
  cfg.base.target_delay = 2.0;

  RtRunResult r = RunRtExperiment(cfg);

  // 2x overload must shed roughly half; wide band for scheduling noise.
  EXPECT_GT(r.summary.loss_ratio, 0.25);
  EXPECT_LT(r.summary.loss_ratio, 0.70);
  ASSERT_GE(r.recorder.rows().size(), 10u);

  // After the transient the delay estimate must sit near the setpoint
  // (the tight +/-20% gate is rt_soak's job; this is the sanity band).
  double sum = 0.0;
  int n = 0;
  for (const PeriodRecord& row : r.recorder.rows()) {
    if (row.m.k <= 5) continue;
    sum += row.m.y_hat;
    ++n;
  }
  ASSERT_GT(n, 4);
  const double mean_yhat = sum / n;
  EXPECT_GT(mean_yhat, 0.5 * cfg.base.target_delay);
  EXPECT_LT(mean_yhat, 1.5 * cfg.base.target_delay);
  // The entry shedder actually actuated.
  EXPECT_GT(r.summary.shed, 0u);
}

TEST(RtRuntimeTest, CostTraceAndQueueShedderTrackSetpoint) {
  // Rt parity for the two formerly sim-only actuation knobs: the Fig. 14
  // cost trace (sampled on the worker's clock) and the in-network queue
  // shedder (each plan's budget executed inside the worker pump). The
  // controlled delay must still track the setpoint within the sanity band.
  RtRunConfig cfg = BaseConfig();
  cfg.base.method = Method::kCtrl;
  cfg.base.constant_rate = 380.0;
  cfg.base.duration = 15.0;
  cfg.base.target_delay = 2.0;
  cfg.base.vary_cost = true;
  cfg.base.use_queue_shedder = true;

  RtRunResult r = RunRtExperiment(cfg);

  ASSERT_GE(r.recorder.rows().size(), 10u);
  double sum = 0.0;
  int n = 0;
  for (const PeriodRecord& row : r.recorder.rows()) {
    if (row.m.k <= 5) continue;
    sum += row.m.y_hat;
    ++n;
  }
  ASSERT_GT(n, 4);
  const double mean_yhat = sum / n;
  EXPECT_GT(mean_yhat, 0.5 * cfg.base.target_delay);
  EXPECT_LT(mean_yhat, 1.5 * cfg.base.target_delay);
  // The run actually shed: with a cost trace on top of 2x overload the
  // loop cannot be idle.
  EXPECT_GT(r.summary.shed, 0u);
  // queue_shed is accounted separately from entry_shed and ring drops and
  // the summary total is their sum (the unified accounting scheme).
  EXPECT_EQ(r.summary.shed,
            r.summary.entry_shed + r.summary.ring_dropped +
                r.summary.queue_shed);
}

TEST(RtRuntimeTest, RingOverflowIsCountedAsLoss) {
  RtRunConfig cfg = BaseConfig();
  cfg.base.method = Method::kNone;  // no shedding: overflow is the relief
  cfg.base.constant_rate = 380.0;
  cfg.base.duration = 4.0;
  cfg.ring_capacity = 2;  // pathological ingress queue
  // Pump rarely (in wall time) so arrivals pile into the tiny ring
  // between pumps.
  cfg.pacing_wall_seconds = 2e-3;

  RtRunResult r = RunRtExperiment(cfg);

  EXPECT_GT(r.ring_dropped, 0u);
  // Drop-on-full feeds the loss ratio even with no controller installed.
  EXPECT_GT(r.summary.loss_ratio, 0.0);
  EXPECT_EQ(r.summary.shed, r.ring_dropped);
  // Offered splits into admitted + overflow (+ a handful still queued in
  // the ring at teardown).
  EXPECT_GE(r.summary.offered, r.ring_dropped);
}

TEST(RtRuntimeTest, SetpointScheduleIsApplied) {
  RtRunConfig cfg = BaseConfig();
  cfg.base.method = Method::kCtrl;
  cfg.base.constant_rate = 380.0;
  cfg.base.duration = 12.0;
  cfg.base.target_delay = 2.0;
  cfg.base.setpoint_schedule = {{6.0, 1.0}};

  RtRunResult r = RunRtExperiment(cfg);

  bool saw_initial = false;
  bool saw_changed = false;
  for (const PeriodRecord& row : r.recorder.rows()) {
    if (row.m.t < 5.5) saw_initial |= row.m.target_delay == 2.0;
    if (row.m.t > 7.5) saw_changed |= row.m.target_delay == 1.0;
  }
  EXPECT_TRUE(saw_initial);
  EXPECT_TRUE(saw_changed);
}

TEST(RtRuntimeTest, JitterHistogramsAreAlwaysCollected) {
  RtRunConfig cfg = BaseConfig();
  cfg.base.method = Method::kCtrl;
  cfg.base.constant_rate = 380.0;
  cfg.base.duration = 8.0;

  RtRunResult r = RunRtExperiment(cfg);

  // No telemetry dir, yet the scheduling-jitter record is there: one
  // sample per worker pump and one per control tick.
  EXPECT_GT(r.pump_intervals.count(), 100u);
  EXPECT_GT(r.actuation_lateness.count(), 4u);
  EXPECT_GT(r.pump_intervals.Quantile(0.5), 0.0);
  // Lateness is an overshoot: non-negative by construction.
  EXPECT_GE(r.actuation_lateness.min(), 0.0);
  // And telemetry stayed off.
  EXPECT_EQ(r.trace_events, 0u);
  EXPECT_EQ(r.timeline_rows, 0u);
}

TEST(RtRuntimeTest, TelemetryDirProducesTraceAndTimeline) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  dir += "ctrlshed_rt_telemetry_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  RtRunConfig cfg = BaseConfig();
  cfg.base.method = Method::kCtrl;
  cfg.base.constant_rate = 380.0;
  cfg.base.duration = 8.0;
  cfg.base.telemetry.dir = dir;
  cfg.base.telemetry.export_period_wall = 0.05;

  RtRunResult r = RunRtExperiment(cfg);

  EXPECT_GT(r.trace_events, 0u);
  EXPECT_GT(r.timeline_rows, 4u);
  EXPECT_EQ(r.timeline_rows, r.recorder.rows().size());

  // The Chrome trace carries spans from the worker, the controller, at
  // least one source thread, and the main thread.
  std::ifstream trace_in(dir + "/trace.json");
  ASSERT_TRUE(trace_in.good());
  std::ostringstream trace_buf;
  trace_buf << trace_in.rdbuf();
  const std::string trace = trace_buf.str();
  EXPECT_NE(trace.find("rt.worker"), std::string::npos);
  EXPECT_NE(trace.find("rt.controller"), std::string::npos);
  EXPECT_NE(trace.find("rt.source0"), std::string::npos);
  EXPECT_NE(trace.find("\"main\""), std::string::npos);
  EXPECT_NE(trace.find("\"pump\""), std::string::npos);
  EXPECT_NE(trace.find("control_tick"), std::string::npos);

  // The timeline CSV has the header plus one row per control period, with
  // the control signals the analysis scripts need.
  std::ifstream csv_in(TimelineCsvPath(dir));
  ASSERT_TRUE(csv_in.good());
  std::string header;
  ASSERT_TRUE(std::getline(csv_in, header));
  for (const char* col : {"q", "y_hat", "e", "u", "v", "alpha"}) {
    EXPECT_NE(header.find(col), std::string::npos) << col;
  }
  size_t rows = 0;
  std::string line;
  while (std::getline(csv_in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, r.timeline_rows);

  // metrics.jsonl saw at least one periodic snapshot plus the final flush.
  std::ifstream metrics_in(dir + "/metrics.jsonl");
  ASSERT_TRUE(metrics_in.good());
  std::ostringstream metrics_buf;
  metrics_buf << metrics_in.rdbuf();
  EXPECT_NE(metrics_buf.str().find("rt.pump_interval_s"), std::string::npos);
  EXPECT_NE(metrics_buf.str().find("rt.actuation_lateness_s"),
            std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(RtRuntimeDeathTest, RejectsSimOnlyKnobs) {
  // The queue shedder and the cost trace now have rt parity; injected
  // estimation noise is the one remaining sim-only knob.
  RtRunConfig cfg = BaseConfig();
  cfg.base.duration = 1.0;
  cfg.base.estimation_noise = 0.05;
  EXPECT_DEATH(RunRtExperiment(cfg), "unsupported rt config");
}

TEST(RtConfigErrorTest, NamesTheOffendingKnob) {
  RtRunConfig ok = BaseConfig();
  EXPECT_EQ(RtConfigError(ok), "");

  RtRunConfig noise = BaseConfig();
  noise.base.estimation_noise = 0.05;
  EXPECT_NE(RtConfigError(noise).find("noise"), std::string::npos);

  RtRunConfig aurora = BaseConfig();
  aurora.base.method = Method::kAurora;
  aurora.base.use_queue_shedder = true;
  EXPECT_NE(RtConfigError(aurora).find("queue"), std::string::npos);

  RtRunConfig queue_ok = BaseConfig();
  queue_ok.base.use_queue_shedder = true;
  queue_ok.base.vary_cost = true;
  EXPECT_EQ(RtConfigError(queue_ok), "");

  RtRunConfig bad_workers = BaseConfig();
  bad_workers.workers = 0;
  EXPECT_NE(RtConfigError(bad_workers).find("workers"), std::string::npos);

  RtRunConfig bad_batch = BaseConfig();
  bad_batch.batch = 0;
  EXPECT_NE(RtConfigError(bad_batch).find("batch"), std::string::npos);
}

TEST(RtConfigErrorTest, TableOfBadNumericKnobs) {
  struct Case {
    const char* knob;
    std::function<void(RtRunConfig*)> mutate;
  };
  const std::vector<Case> cases = {
      // The shared base knobs (ExperimentConfigError)...
      {"T", [](RtRunConfig* c) { c->base.period = 0.0; }},
      {"duration", [](RtRunConfig* c) { c->base.duration = 0.0; }},
      {"yd", [](RtRunConfig* c) { c->base.target_delay = 0.0; }},
      {"H", [](RtRunConfig* c) { c->base.headroom_est = 2.0; }},
      {"setpoint",
       [](RtRunConfig* c) { c->base.setpoint_schedule = {{10.0, -1.0}}; }},
      // ...and the rt-plant knobs (RtPlantError).
      {"workers", [](RtRunConfig* c) { c->workers = 65; }},
      {"compress", [](RtRunConfig* c) { c->time_compression = 0.0; }},
      {"ring", [](RtRunConfig* c) { c->ring_capacity = 0; }},
      {"ring",
       [](RtRunConfig* c) { c->ring_capacity = kRtMaxRingCapacity + 1; }},
      {"batch", [](RtRunConfig* c) { c->batch = 4097; }},
      {"pin_cpus", [](RtRunConfig* c) { c->pin_cpus = "0,x"; }},
  };
  for (const Case& c : cases) {
    RtRunConfig cfg = BaseConfig();
    c.mutate(&cfg);
    const std::string error = RtConfigError(cfg);
    EXPECT_EQ(error.rfind(std::string(c.knob) + " ", 0), 0u)
        << c.knob << ": '" << error << "'";
  }
  // The node runs the same plant check on its own knobs.
  RtPlantConfig plant;
  plant.workers = 2;
  plant.batch = 64;
  plant.pin_cpus = "auto";
  EXPECT_EQ(RtPlantError(plant), "");
  plant.pin_cpus = "0,x";
  EXPECT_EQ(RtPlantError(plant).rfind("pin_cpus ", 0), 0u);
}

}  // namespace
}  // namespace ctrlshed
