// rt_soak — the real-time runtime's overload soak: replay the Fig. 13 web
// workload, scaled to a sustained 2x overload of the engine's capacity,
// against the wall clock (src/rt), and check that the pole-placement
// controller holds the measured average delay at the setpoint.
//
// This is the acceptance demo of the rt subsystem: the same controller,
// shedder, and virtual-queue bookkeeping as the simulation, but with delay
// measurement, cost estimation, and actuation racing real arrival threads.
// Time compression (trace seconds per wall second) keeps the soak CI-sized;
// pass compress=1 for a true real-time hour-of-the-day soak.
//
// Its knobs (duration, compress, yd, overload, seed, workers, batch, pin,
// telemetry_dir, telemetry_port) are SoakArgs' rows in tools/cli/commands.h;
// an unknown key lists them.
//
// workers=N shards the plant across N engine workers under one aggregate
// feedback loop. `overload` stays defined against ONE worker's capacity,
// so the same trace feeds every N: workers=4 overload=8 is a 2x overload
// of the aggregate. With workers > 1 the soak first replays the identical
// trace at workers=1 and prints the comparison — the sharded run must
// shed measurably less (or process measurably more) than the single
// worker it outgrew, plus a per-shard drop/loss breakdown.
//
// Exit status 0 iff the converged mean delay estimate is within ±20% of
// the setpoint over the overloaded periods (fin >= N x capacity). When
// the trace never overloads the aggregate (fewer than 8 such periods —
// e.g. workers=4 overload=2), the gate degrades gracefully: the delay
// estimate must simply stay at or below the setpoint band (an unloaded
// shedder cannot create delay), and with workers > 1 the N-vs-1
// improvement must still hold. The summary includes the latency-jitter
// report: pump interval and actuation-lateness percentiles (p50/p95/p99),
// quantifying the thread-scheduling noise the rt runtime adds over the
// sim.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "cli/commands.h"
#include "common/table_printer.h"
#include "rt/rt_runtime.h"

using namespace ctrlshed;

namespace {

void PrintJitter(const char* label, const LatencyHistogram& h) {
  std::printf("%s p50/p95/p99    %.3f / %.3f / %.3f ms  "
              "(max %.3f ms, %llu samples)\n",
              label, h.Quantile(0.50) * 1e3, h.Quantile(0.95) * 1e3,
              h.Quantile(0.99) * 1e3, h.max() * 1e3,
              static_cast<unsigned long long>(h.count()));
}

void PrintShardBreakdown(const RtRunResult& r) {
  std::printf("\nper-shard breakdown (%d workers):\n", r.workers);
  for (size_t i = 0; i < r.shards.size(); ++i) {
    const RtShardSummary& s = r.shards[i];
    const uint64_t dropped = s.entry_shed + s.ring_dropped + s.queue_shed;
    const double loss =
        s.offered > 0
            ? static_cast<double>(dropped) / static_cast<double>(s.offered)
            : 0.0;
    std::printf("  shard %zu: offered %llu, entry_shed %llu, ring_drop %llu, "
                "in_net %llu (loss %.3f), departed %llu, "
                "pump p50/p99 %.3f/%.3f ms\n",
                i, static_cast<unsigned long long>(s.offered),
                static_cast<unsigned long long>(s.entry_shed),
                static_cast<unsigned long long>(s.ring_dropped),
                static_cast<unsigned long long>(s.queue_shed), loss,
                static_cast<unsigned long long>(s.departed),
                s.pump_intervals.Quantile(0.50) * 1e3,
                s.pump_intervals.Quantile(0.99) * 1e3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("rt_soak", "wall-clock overload soak of the rt runtime");

  SoakArgs args;
  if (const std::string error = Parse(argc - 1, argv + 1, &args);
      !error.empty()) {
    std::fprintf(stderr, "rt_soak: %s\n", error.c_str());
    return 2;
  }
  RtRunConfig& cfg = args.cfg;
  const double duration = cfg.base.duration;
  const double compress = cfg.time_compression;
  const double yd = cfg.base.target_delay;
  const int workers = cfg.workers;
  cfg.base.telemetry.on_server_start = [](int port) {
    std::printf("telemetry server: http://127.0.0.1:%d/ "
                "(/metrics /status /timeline)\n",
                port);
    std::fflush(stdout);
  };

  const double agg_capacity =
      static_cast<double>(workers) * cfg.base.capacity_rate;
  std::printf("workload: web trace, mean %.0f t/s vs %d x %.0f t/s capacity "
              "(%.1fx overload of the aggregate)\n",
              cfg.base.web.mean_rate, workers, cfg.base.capacity_rate,
              cfg.base.web.mean_rate / agg_capacity);
  std::printf("replaying %.0f trace seconds at %gx compression "
              "(~%.1f wall s), T = %.1f s, yd = %.1f s, batch = %zu%s\n\n",
              duration, compress, duration / compress, cfg.base.period, yd,
              cfg.batch, cfg.pin_cpus.empty() ? "" : ", workers pinned");

  // The single-worker yardstick: with workers > 1, first replay the same
  // trace against one worker so the sharded run has something to beat.
  RtRunResult single;
  if (workers > 1) {
    RtRunConfig one = cfg;
    one.workers = 1;
    one.base.telemetry.dir = "";
    one.base.telemetry.server_port = -1;
    one.base.telemetry.on_server_start = nullptr;
    std::printf("comparison run: workers=1 on the same trace ...\n");
    single = RunRtExperiment(one);
    std::printf("  workers=1: offered %llu, shed %llu (loss %.3f), "
                "departures %llu, mean delay %.3f s\n\n",
                static_cast<unsigned long long>(single.summary.offered),
                static_cast<unsigned long long>(single.summary.shed),
                single.summary.loss_ratio,
                static_cast<unsigned long long>(single.summary.departures),
                single.summary.mean_delay);
  }

  RtRunResult r = RunRtExperiment(cfg);

  TablePrinter table(std::cout, {"k", "fin", "admitted", "fout", "queue",
                                 "y_hat", "y_meas", "alpha"});
  table.PrintHeader();
  for (const PeriodRecord& row : r.recorder.rows()) {
    table.PrintRow({static_cast<double>(row.m.k), row.m.fin, row.m.admitted,
                    row.m.fout, row.m.queue, row.m.y_hat,
                    row.m.has_y_measured ? row.m.y_measured : 0.0,
                    row.alpha});
  }

  // Only overloaded periods test the tracking: during a burst lull (fin
  // below capacity) a shedder cannot create delay (metrics/TrackingGate).
  const TrackingVerdict gate = TrackingGate(r.recorder, yd, agg_capacity);

  std::printf("\n");
  std::printf("offered %llu, shed %llu (loss %.3f), departures %llu, "
              "mean delay %.3f s\n",
              static_cast<unsigned long long>(r.summary.offered),
              static_cast<unsigned long long>(r.summary.shed),
              r.summary.loss_ratio,
              static_cast<unsigned long long>(r.summary.departures),
              r.summary.mean_delay);
  std::printf("ring drops          %llu\n",
              static_cast<unsigned long long>(r.ring_dropped));
  std::printf("loop health         %s\n", r.health.Summary().c_str());
  std::printf("wall time           %.2f s (%.0fx real time)\n",
              r.wall_seconds, duration / r.wall_seconds);
  PrintShardBreakdown(r);

  // Latency-jitter report: how noisily the threads hit their wall-clock
  // marks. Pump interval should sit near the 0.5 ms pacing; actuation
  // lateness is the control tick's overshoot past the period boundary.
  std::printf("\nlatency jitter (wall clock):\n");
  PrintJitter("pump interval     ", r.pump_intervals);
  PrintJitter("actuation lateness", r.actuation_lateness);
  if (!cfg.base.telemetry.dir.empty()) {
    std::printf("telemetry           %llu trace events (%llu dropped), "
                "%llu timeline rows -> %s\n",
                static_cast<unsigned long long>(r.trace_events),
                static_cast<unsigned long long>(r.trace_dropped),
                static_cast<unsigned long long>(r.timeline_rows),
                cfg.base.telemetry.dir.c_str());
  }
  if (r.telemetry_port >= 0) {
    std::printf("sse feed            port %d: %llu connections, "
                "%llu rows streamed, %llu dropped to slow clients\n",
                r.telemetry_port,
                static_cast<unsigned long long>(r.sse_clients),
                static_cast<unsigned long long>(r.sse_rows_published),
                static_cast<unsigned long long>(r.sse_rows_dropped));
  }
  std::printf("converged mean y    %.3f s (setpoint %.3f s, error %.1f%%, "
              "%d overloaded periods, %d lulls excluded)\n",
              gate.mean_overloaded, yd, 100.0 * gate.error, gate.overloaded,
              gate.converged - gate.overloaded);

  bool pass = gate.pass;
  if (gate.tracked()) {
    std::printf("%s: converged delay within +/-20%% of setpoint under "
                "overload\n",
                pass ? "PASS" : "FAIL");
  } else {
    std::printf("%s: aggregate never overloaded (%d overloaded periods); "
                "mean y %.3f s stays at or below the setpoint band\n",
                pass ? "PASS" : "FAIL", gate.overloaded, gate.mean_converged);
  }

  // Sharding dividend gate: on the same trace, N workers must shed
  // measurably less or process measurably more than one.
  if (workers > 1) {
    const bool sheds_less =
        r.summary.loss_ratio + 0.02 < single.summary.loss_ratio;
    const bool processes_more =
        static_cast<double>(r.summary.departures) >
        1.05 * static_cast<double>(single.summary.departures);
    const bool improved = sheds_less || processes_more;
    std::printf("%s: workers=%d vs workers=1 — loss %.3f vs %.3f, "
                "departures %llu vs %llu\n",
                improved ? "PASS" : "FAIL", workers, r.summary.loss_ratio,
                single.summary.loss_ratio,
                static_cast<unsigned long long>(r.summary.departures),
                static_cast<unsigned long long>(single.summary.departures));
    pass = pass && improved;
  }
  return pass ? 0 : 1;
}
