// ctrlshed — command-line front end to the experiment harness: run, rt,
// node, cluster, feed, trace, trace-merge and design. Each command's knobs
// are one table (cli/commands.h) that parses and checks them and prints
// `ctrlshed help`; a bad or unknown knob exits 2 with a message naming it.
//
//   ctrlshed run method=ctrl workload=pareto duration=400 yd=2 seed=7
//   ctrlshed rt method=ctrl workload=web duration=60 compress=20
//   ctrlshed trace kind=web duration=400 seed=42 > web.trace

#include <csignal>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "cli/commands.h"
#include "common/build_info.h"
#include "net/socket_util.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace_merge.h"
#include "workload/trace_io.h"
#include "workload/traces.h"

using namespace ctrlshed;

namespace {

/// Set by SIGINT/SIGTERM; polled by the rt runtime's main-thread sleeps so
/// an interrupted run still tears down cleanly and flushes its telemetry.
std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

void InstallShutdownHandler() {
  struct sigaction sa{};
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  // One signal requests the graceful flush; a second one (the handler is
  // reset to default) kills a run that is stuck tearing down.
  sa.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// Parses the tokens after the command name and runs `body` on them; a bad
/// command line prints its error and exits 2.
template <class Args>
int Dispatch(const char* name, int argc, char** argv, int (*body)(Args&)) {
  Args args;
  const std::string error = Parse(argc - 2, argv + 2, &args);
  if (error.empty()) return body(args);
  std::fprintf(stderr, "ctrlshed %s: %s\n", name, error.c_str());
  return 2;
}

void PrintSummary(const QosSummary& s) {
  std::printf("offered            %llu\n",
              static_cast<unsigned long long>(s.offered));
  std::printf("shed               %llu (loss %.4f)\n",
              static_cast<unsigned long long>(s.shed), s.loss_ratio);
  std::printf("departures         %llu\n",
              static_cast<unsigned long long>(s.departures));
  std::printf("mean delay         %.4f s\n", s.mean_delay);
  std::printf("p50/p95/p99 delay  %.4f / %.4f / %.4f s\n", s.p50_delay,
              s.p95_delay, s.p99_delay);
  std::printf("delayed tuples     %llu\n",
              static_cast<unsigned long long>(s.delayed_tuples));
  std::printf("accum violation    %.3f tuple-seconds\n",
              s.accumulated_violation);
  std::printf("max overshoot      %.4f s\n", s.max_overshoot);
}

int WriteRecorder(const Recorder& recorder, const std::string& trace_out) {
  if (trace_out.empty()) return 0;
  std::ofstream out(trace_out);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 1;
  }
  recorder.WriteCsv(out);
  std::printf("per-period trace written to %s\n", trace_out.c_str());
  return 0;
}

void PrintTelemetryPaths(const std::string& dir) {
  if (dir.empty()) return;
  std::printf("telemetry written to %s: trace.json (open in Perfetto), "
              "metrics.jsonl, timeline.csv, timeline.jsonl\n",
              dir.c_str());
}

/// Installs the banner that announces the live server once it listens;
/// the smoke scripts read the port from it.
void AnnounceTelemetryServer(TelemetryOptions* t) {
  if (t->server_port < 0) return;
  const std::string bind = t->server_bind_address;
  const bool authed = !t->server_auth_token.empty();
  t->on_server_start = [bind, authed](int port) {
    std::printf("telemetry server   http://%s:%d/ "
                "(/metrics /status /timeline /fleet)%s\n",
                bind.c_str(), port, authed ? " [token required]" : "");
    std::fflush(stdout);
  };
}

int CmdRun(RunArgs& c) {
  ExperimentConfig& cfg = c.cfg;
  AnnounceTelemetryServer(&cfg.telemetry);

  InstallFlightDumpHandlers();
  ExperimentResult r = RunExperiment(cfg);
  PrintSummary(r.summary);
  std::printf("loop health        %s\n", r.health.Summary().c_str());
  PrintTelemetryPaths(cfg.telemetry.dir);
  return WriteRecorder(r.recorder, c.trace_out);
}

int CmdRt(RtArgs& c) {
  RtRunConfig& cfg = c.cfg;
  AnnounceTelemetryServer(&cfg.base.telemetry);

  InstallShutdownHandler();
  InstallFlightDumpHandlers();
  cfg.stop = &g_stop;

  std::printf("replaying %.0f trace seconds at %gx compression (~%.1f wall s)"
              " ...\n",
              cfg.base.duration, cfg.time_compression,
              cfg.base.duration / cfg.time_compression);
  RtRunResult r = RunRtExperiment(cfg);
  if (r.interrupted) {
    std::printf("interrupted — partial run; telemetry flushed completely\n");
  }
  PrintSummary(r.summary);
  if (r.workers > 1) std::printf("workers            %d\n", r.workers);
  for (size_t i = 0; i < r.shards.size(); ++i) {
    const RtShardSummary& s = r.shards[i];
    std::printf("  shard %zu          offered %llu  entry_shed %llu  "
                "ring_drop %llu  in_net %llu  departed %llu\n",
                i, static_cast<unsigned long long>(s.offered),
                static_cast<unsigned long long>(s.entry_shed),
                static_cast<unsigned long long>(s.ring_dropped),
                static_cast<unsigned long long>(s.queue_shed),
                static_cast<unsigned long long>(s.departed));
  }
  std::printf("ring drops         %llu\n",
              static_cast<unsigned long long>(r.ring_dropped));
  std::printf("replay             %llu wakes, %.1f tuples/wake\n",
              static_cast<unsigned long long>(r.replay_wakeups),
              r.replay_wakeups == 0
                  ? 0.0
                  : static_cast<double>(r.summary.offered) /
                        static_cast<double>(r.replay_wakeups));
  std::printf("loop health        %s\n", r.health.Summary().c_str());
  std::printf("wall time          %.2f s\n", r.wall_seconds);
  std::printf("pump interval      p50/p95/p99 %.3f / %.3f / %.3f ms\n",
              r.pump_intervals.Quantile(0.50) * 1e3,
              r.pump_intervals.Quantile(0.95) * 1e3,
              r.pump_intervals.Quantile(0.99) * 1e3);
  std::printf("actuation lateness p50/p95/p99 %.3f / %.3f / %.3f ms\n",
              r.actuation_lateness.Quantile(0.50) * 1e3,
              r.actuation_lateness.Quantile(0.95) * 1e3,
              r.actuation_lateness.Quantile(0.99) * 1e3);
  if (!cfg.base.telemetry.dir.empty()) {
    std::printf("trace events       %llu captured, %llu dropped; "
                "%llu timeline rows\n",
                static_cast<unsigned long long>(r.trace_events),
                static_cast<unsigned long long>(r.trace_dropped),
                static_cast<unsigned long long>(r.timeline_rows));
    PrintTelemetryPaths(cfg.base.telemetry.dir);
  }
  if (r.telemetry_port >= 0) {
    // Client drops sit beside the tracer's dropped_events above so a
    // silently truncated live feed is visible in the same summary.
    std::printf("sse feed           port %d: %llu connections, %llu rows "
                "streamed, %llu dropped to slow clients\n",
                r.telemetry_port,
                static_cast<unsigned long long>(r.sse_clients),
                static_cast<unsigned long long>(r.sse_rows_published),
                static_cast<unsigned long long>(r.sse_rows_dropped));
  }
  return WriteRecorder(r.recorder, c.trace_out);
}

int CmdTrace(TraceArgs& c) {
  const ExperimentConfig& cfg = c.cfg;
  RateTrace trace;
  switch (c.kind) {
    case TraceKind::kWeb:
      trace = MakeWebTrace(cfg.duration, WebTraceParams{}, cfg.seed);
      break;
    case TraceKind::kPareto:
      trace = MakeParetoTrace(cfg.duration, cfg.pareto, cfg.seed);
      break;
    case TraceKind::kMmpp:
      trace = MakeMmppTrace(cfg.duration, MmppTraceParams{}, cfg.seed);
      break;
    case TraceKind::kCost:
      trace = MakeCostTrace(cfg.duration, CostTraceParams{}, cfg.seed);
      break;
  }
  WriteTrace(trace, std::cout);
  return 0;
}

int CmdNode(NodeArgs& c) {
  ClusterNodeConfig& cfg = c.cfg;
  AnnounceTelemetryServer(&cfg.base.telemetry);

  InstallShutdownHandler();
  InstallFlightDumpHandlers();
  cfg.stop = &g_stop;
  cfg.on_ready = [&cfg](int port) {
    std::printf("node %u: ingress listening on 127.0.0.1:%d (%d workers)\n",
                cfg.node_id, port, cfg.workers);
    std::fflush(stdout);
  };

  ClusterNodeResult r = RunClusterNode(cfg);
  if (r.interrupted) std::printf("interrupted — partial run\n");
  std::printf("offered            %llu\n",
              static_cast<unsigned long long>(r.offered));
  std::printf("entry shed         %llu (alpha %.3f at end)\n",
              static_cast<unsigned long long>(r.entry_shed), r.final_alpha);
  std::printf("ring drops         %llu\n",
              static_cast<unsigned long long>(r.ring_dropped));
  std::printf("departed           %llu\n",
              static_cast<unsigned long long>(r.departed));
  std::printf("ingress            %llu connections, %llu frames, "
              "%llu rejected, %llu corrupt streams, %.1f frames/wake\n",
              static_cast<unsigned long long>(r.ingress_connections),
              static_cast<unsigned long long>(r.ingress_frames),
              static_cast<unsigned long long>(r.ingress_rejected),
              static_cast<unsigned long long>(r.corrupt_streams),
              r.ingress_wakeups == 0
                  ? 0.0
                  : static_cast<double>(r.ingress_frames) /
                        static_cast<double>(r.ingress_wakeups));
  std::printf("control            %s, %llu reports sent, %llu actuations "
              "applied, %llu rejected\n",
              r.controller_connected ? "connected" : "standalone",
              static_cast<unsigned long long>(r.reports_sent),
              static_cast<unsigned long long>(r.actuations_applied),
              static_cast<unsigned long long>(r.control_rejected));
  std::printf("loop health        %s\n", r.health.Summary().c_str());
  std::printf("wall time          %.2f s\n", r.wall_seconds);
  return 0;
}

int CmdCluster(ClusterArgs& c) {
  ClusterControllerConfig& cfg = c.cfg;
  AnnounceTelemetryServer(&cfg.base.telemetry);

  InstallShutdownHandler();
  InstallFlightDumpHandlers();
  cfg.stop = &g_stop;
  cfg.on_ready = [](int port) {
    std::printf("cluster controller: control channel on 127.0.0.1:%d\n", port);
    std::fflush(stdout);
  };

  ClusterControllerResult r = RunClusterController(cfg);
  if (r.interrupted) std::printf("interrupted — partial run\n");
  std::printf("nodes              %d seen (%d workers total), %d active at "
              "end\n",
              r.nodes_seen, r.total_workers, r.final_active);
  std::printf("ticks              %d (%d idle)\n", r.ticks, r.idle_ticks);
  std::printf("messages           %llu hellos, %llu reports, %llu acks, "
              "%llu rejected, %llu corrupt streams\n",
              static_cast<unsigned long long>(r.hellos),
              static_cast<unsigned long long>(r.reports),
              static_cast<unsigned long long>(r.acks),
              static_cast<unsigned long long>(r.rejected),
              static_cast<unsigned long long>(r.corrupt_streams));
  std::printf("loop health        %s\n", r.health.Summary().c_str());
  std::printf("wall time          %.2f s\n", r.wall_seconds);
  const int wret = WriteRecorder(r.recorder, c.trace_out);
  if (!c.gate) return wret;

  // The rt_soak tracking gate on the aggregate plant.
  const double yd = cfg.base.target_delay;
  const TrackingVerdict v = TrackingGate(
      r.recorder, yd,
      static_cast<double>(r.total_workers) * cfg.base.capacity_rate);
  if (v.tracked()) {
    std::printf("%s: converged mean y %.3f s vs setpoint %.3f s "
                "(error %.1f%%, %d overloaded periods)\n",
                v.pass ? "PASS" : "FAIL", v.mean_overloaded, yd,
                100.0 * v.error, v.overloaded);
  } else {
    std::printf("%s: aggregate never overloaded (%d overloaded periods); "
                "mean y %.3f s stays at or below the setpoint band\n",
                v.pass ? "PASS" : "FAIL", v.overloaded, v.mean_converged);
  }
  return (v.pass && wret == 0) ? 0 : 1;
}

int CmdFeed(FeedArgs& c) {
  ClusterFeedConfig& cfg = c.cfg;

  InstallShutdownHandler();
  cfg.stop = &g_stop;

  ClusterFeedResult r = RunClusterFeeder(cfg);
  if (!r.connected) {
    std::fprintf(stderr, "feed: cannot reach %s:%d\n", cfg.host.c_str(),
                 cfg.port);
    return 1;
  }
  if (r.interrupted) std::printf("interrupted — partial feed\n");
  std::printf("sent %llu tuples in %llu frames over %.2f wall s\n",
              static_cast<unsigned long long>(r.tuples_sent),
              static_cast<unsigned long long>(r.frames_sent), r.wall_seconds);
  return 0;
}

int CmdTraceMerge(TraceMergeArgs& c) {
  TraceMergeResult res;
  if (!MergeTraceFiles(c.inputs, c.out, &res)) {
    std::fprintf(stderr, "trace-merge: %s\n", res.error.c_str());
    return 1;
  }
  for (size_t i = 0; i < res.files; ++i) {
    std::printf("  track %-16s %zu events, clock offset %+lld us\n",
                res.labels[i].c_str(), res.events_per_file[i],
                static_cast<long long>(res.offsets_us[i]));
  }
  std::printf("merged %zu events from %zu files into %s\n", res.events,
              res.files, c.out.c_str());
  if (res.common_periods.empty()) {
    std::printf("no controller period id appears in every track\n");
    if (c.require_period_overlap) return 1;
  } else {
    std::printf("%zu controller period(s) traced across every track "
                "(e.g. period %lld)\n",
                res.common_periods.size(),
                static_cast<long long>(res.common_periods.front()));
  }
  return 0;
}

int CmdDesign(DesignArgs& c) {
  const ControllerGains& g = c.gains;
  std::printf("closed-loop poles at %.3f (damping 1)\n", c.poles);
  std::printf("controller C(z) = H (b0 z + b1) / (c T (z + a))\n");
  std::printf("  b0 = %.6f\n  b1 = %.6f\n  a  = %.6f\n", g.b0, g.b1, g.a);
  std::printf("control law: u(k) = H/(cT) (b0 e(k) + b1 e(k-1)) - a u(k-1)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Process-wide: a peer that closes its socket mid-write must surface as
  // an EPIPE error code, never as a fatal signal (cluster roles write to
  // sockets from several threads).
  IgnoreSigPipe();
  if (argc < 2 || std::strcmp(argv[1], "help") == 0) {
    PrintHelp(stdout);
    return argc < 2 ? 2 : 0;
  }
  const std::string cmd = argv[1];
  if (cmd == "version" || cmd == "--version" || cmd == "-V") {
    std::printf("%s\n", BuildInfoLine().c_str());
    return 0;
  }
  if (cmd == "run") return Dispatch("run", argc, argv, CmdRun);
  if (cmd == "rt") return Dispatch("rt", argc, argv, CmdRt);
  if (cmd == "node") return Dispatch("node", argc, argv, CmdNode);
  if (cmd == "cluster") return Dispatch("cluster", argc, argv, CmdCluster);
  if (cmd == "feed") return Dispatch("feed", argc, argv, CmdFeed);
  if (cmd == "trace") return Dispatch("trace", argc, argv, CmdTrace);
  if (cmd == "trace-merge") {
    return Dispatch("trace-merge", argc, argv, CmdTraceMerge);
  }
  if (cmd == "design") return Dispatch("design", argc, argv, CmdDesign);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  PrintHelp(stdout);
  return 2;
}
