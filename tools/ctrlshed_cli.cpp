// ctrlshed — command-line front end to the experiment harness.
//
//   ctrlshed run [key=value ...]       run one closed-loop experiment
//   ctrlshed rt  [key=value ...]       run it on wall-clock threads (src/rt)
//   ctrlshed trace [key=value ...]     generate a workload trace (stdout)
//   ctrlshed design [poles=P] [a=A]    print controller gains for a design
//   ctrlshed help
//
// Examples:
//   ctrlshed run method=ctrl workload=pareto duration=400 yd=2 seed=7
//   ctrlshed run method=aurora workload=web vary_cost=1 trace_out=run.csv
//   ctrlshed rt method=ctrl workload=web duration=60 compress=20
//   ctrlshed trace kind=web duration=400 seed=42 > web.trace
//   ctrlshed design poles=0.7
//
// All values are plain key=value tokens; GNU-style spellings are accepted
// too (`--telemetry-dir out/` and `--telemetry-dir=out/` both mean
// `telemetry_dir=out/`). Unknown keys abort with a message listing the
// valid ones.

#include <csignal>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cluster/controller_runner.h"
#include "cluster/feeder.h"
#include "cluster/node_runner.h"
#include "common/build_info.h"
#include "control/pole_placement.h"
#include "net/socket_util.h"
#include "rt/rt_runtime.h"
#include "runner/experiment.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace_merge.h"
#include "workload/trace_io.h"
#include "workload/traces.h"

using namespace ctrlshed;

namespace {

using Args = std::map<std::string, std::string>;

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string tok = argv[i];
    const bool dashed = tok.rfind("--", 0) == 0;
    if (dashed) {
      // GNU spelling: strip the dashes, map '-' to '_', allow the value
      // as either `--key=value` or the next token.
      tok = tok.substr(2);
      for (char& c : tok) {
        if (c == '-') c = '_';
      }
      if (tok.find('=') == std::string::npos) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "option --%s needs a value\n", tok.c_str());
          std::exit(2);
        }
        args[tok] = argv[++i];
        continue;
      }
    }
    const size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "expected key=value, got '%s'\n", tok.c_str());
      std::exit(2);
    }
    args[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return args;
}

/// `text` as a number for knob `key`. Unless the whole token is a number,
/// exits 2 naming the knob: `yd=2x` or `vary_cost=yes` is an error, not a
/// silent 2 or 0.
double ParseNumber(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    std::fprintf(stderr, "%s must be a number, got '%s'\n", key.c_str(),
                 text.c_str());
    std::exit(2);
  }
  return v;
}

double GetDouble(Args& args, const std::string& key, double fallback) {
  auto it = args.find(key);
  if (it == args.end()) return fallback;
  const double v = ParseNumber(key, it->second);
  args.erase(it);
  return v;
}

/// A strictly positive double under `key`; anything else (0, negative,
/// NaN, junk) exits 2 naming the key.
double GetPositive(Args& args, const std::string& key, double fallback) {
  const double v = GetDouble(args, key, fallback);
  if (!(v > 0.0)) {
    std::fprintf(stderr, "%s must be positive, got %g\n", key.c_str(), v);
    std::exit(2);
  }
  return v;
}

/// Validated unsigned integer in [lo, hi] under `key`, or `fallback` when
/// absent. Digits only: a sign, junk or an out-of-range value exits 2
/// naming the key instead of wrapping or losing bits through a double.
uint64_t GetUnsigned(Args& args, const std::string& key, uint64_t fallback,
                     uint64_t lo = 0, uint64_t hi = UINT64_MAX) {
  auto it = args.find(key);
  if (it == args.end()) return fallback;
  const std::string s = it->second;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || s[0] < '0' || s[0] > '9' || *end != '\0' ||
      errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr, "%s must be an integer in [%llu, %llu], got '%s'\n",
                 key.c_str(), static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), s.c_str());
    std::exit(2);
  }
  args.erase(it);
  return v;
}

std::string GetString(Args& args, const std::string& key,
                      const std::string& fallback) {
  auto it = args.find(key);
  if (it == args.end()) return fallback;
  std::string v = it->second;
  args.erase(it);
  return v;
}

/// Worker-shard count of `ctrlshed rt`; strictly validated (a mistyped
/// value silently coerced to 0 workers would be a confusing crash deep in
/// the runtime). 64 is far above any sane shard count on one box.
int GetWorkers(Args& args) {
  auto it = args.find("workers");
  if (it == args.end()) return 1;
  const std::string s = it->second;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v < 1 || v > 64) {
    std::fprintf(stderr,
                 "workers must be an integer in [1, 64], got '%s'\n",
                 s.c_str());
    std::exit(2);
  }
  args.erase(it);
  return static_cast<int>(v);
}

/// Telemetry-server port: -1 (absent) disables; 0 requests an ephemeral
/// port; otherwise a validated TCP port.
int GetPort(Args& args) {
  auto it = args.find("telemetry_port");
  if (it == args.end()) return -1;
  const std::string s = it->second;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v < 0 || v > 65535) {
    std::fprintf(stderr,
                 "telemetry_port must be an integer in [0, 65535], got '%s'\n",
                 s.c_str());
    std::exit(2);
  }
  args.erase(it);
  return static_cast<int>(v);
}

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

/// The exit-2 path for a config the runners would refuse: prints a
/// non-empty `error` under the subcommand's name and reports it.
bool ConfigFails(const char* cmd, const std::string& error) {
  if (error.empty()) return false;
  std::fprintf(stderr, "ctrlshed %s: %s\n", cmd, error.c_str());
  return true;
}

void RejectLeftovers(const Args& args) {
  if (args.empty()) return;
  std::fprintf(stderr, "unknown option(s):");
  for (const auto& [k, v] : args) std::fprintf(stderr, " %s", k.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Method ParseMethod(const std::string& s) {
  if (s == "ctrl") return Method::kCtrl;
  if (s == "baseline") return Method::kBaseline;
  if (s == "aurora") return Method::kAurora;
  if (s == "pi") return Method::kPi;
  if (s == "none") return Method::kNone;
  std::fprintf(stderr, "method must be ctrl|baseline|aurora|pi|none\n");
  std::exit(2);
}

WorkloadKind ParseWorkload(const std::string& s) {
  if (s == "web") return WorkloadKind::kWeb;
  if (s == "pareto") return WorkloadKind::kPareto;
  if (s == "mmpp") return WorkloadKind::kMmpp;
  if (s == "step") return WorkloadKind::kStep;
  if (s == "sine") return WorkloadKind::kSine;
  if (s == "ramp") return WorkloadKind::kRamp;
  if (s == "constant") return WorkloadKind::kConstant;
  std::fprintf(stderr,
               "workload must be web|pareto|mmpp|step|sine|ramp|constant\n");
  std::exit(2);
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

/// Shared telemetry flags: dir, port, and the hardened-server pair —
/// telemetry_bind picks the listen address (default loopback) and
/// telemetry_token arms bearer-token auth. The server itself refuses a
/// non-loopback bind without a token, so the unsafe combination cannot be
/// reached from here.
void SetupTelemetry(Args& args, ExperimentConfig* cfg) {
  cfg->telemetry.dir = GetString(args, "telemetry_dir", "");
  cfg->telemetry.server_port = GetPort(args);
  cfg->telemetry.server_bind_address =
      GetString(args, "telemetry_bind", "127.0.0.1");
  cfg->telemetry.server_auth_token = GetString(args, "telemetry_token", "");
  if (cfg->telemetry.server_port >= 0) {
    const std::string bind = cfg->telemetry.server_bind_address;
    const bool authed = !cfg->telemetry.server_auth_token.empty();
    cfg->telemetry.on_server_start = [bind, authed](int port) {
      std::printf("telemetry server   http://%s:%d/ "
                  "(/metrics /status /timeline /fleet)%s\n",
                  bind.c_str(), port, authed ? " [token required]" : "");
      std::fflush(stdout);
    };
  }
}

int CmdRun(Args args) {
  ExperimentConfig cfg;
  cfg.method = ParseMethod(GetString(args, "method", "ctrl"));
  cfg.workload = ParseWorkload(GetString(args, "workload", "pareto"));
  cfg.duration = GetDouble(args, "duration", 400.0);
  cfg.period = GetDouble(args, "T", 1.0);
  cfg.target_delay = GetDouble(args, "yd", 2.0);
  cfg.headroom_true = GetDouble(args, "H_true", 0.97);
  cfg.headroom_est = GetDouble(args, "H", 0.97);
  cfg.capacity_rate = GetDouble(args, "capacity", 190.0);
  cfg.vary_cost = GetDouble(args, "vary_cost", 0.0) != 0.0;
  cfg.use_queue_shedder = GetDouble(args, "queue_shed", 0.0) != 0.0;
  cfg.cost_aware_shedding = GetDouble(args, "cost_aware", 0.0) != 0.0;
  cfg.estimation_noise = GetDouble(args, "noise", 0.0);
  cfg.adapt_headroom = GetDouble(args, "adapt_H", 0.0) != 0.0;
  cfg.constant_rate = GetDouble(args, "rate", 150.0);
  cfg.pareto.beta = GetDouble(args, "beta", 1.0);
  cfg.seed = GetUnsigned(args, "seed", 42);
  const double poles = GetDouble(args, "poles", 0.7);
  cfg.gains = DesignPolePlacement(poles, poles);
  SetupTelemetry(args, &cfg);
  const std::string trace_out = GetString(args, "trace_out", "");
  RejectLeftovers(args);
  if (ConfigFails("run", ExperimentConfigError(cfg))) return 2;

  InstallFlightDumpHandlers();
  ExperimentResult r = RunExperiment(cfg);
  PrintSummary(r.summary);
  std::printf("loop health        %s\n", r.health.Summary().c_str());
  PrintTelemetryPaths(cfg.telemetry.dir);
  return WriteRecorder(r.recorder, trace_out);
}

int CmdRt(Args args) {
  RtRunConfig cfg;
  cfg.base.method = ParseMethod(GetString(args, "method", "ctrl"));
  cfg.base.workload = ParseWorkload(GetString(args, "workload", "pareto"));
  cfg.base.duration = GetDouble(args, "duration", 60.0);
  cfg.base.period = GetDouble(args, "T", 1.0);
  cfg.base.target_delay = GetDouble(args, "yd", 2.0);
  cfg.base.headroom_true = GetDouble(args, "H_true", 0.97);
  cfg.base.headroom_est = GetDouble(args, "H", 0.97);
  cfg.base.capacity_rate = GetDouble(args, "capacity", 190.0);
  cfg.base.vary_cost = GetDouble(args, "vary_cost", 0.0) != 0.0;
  cfg.base.use_queue_shedder = GetDouble(args, "queue_shed", 0.0) != 0.0;
  cfg.base.cost_aware_shedding = GetDouble(args, "cost_aware", 0.0) != 0.0;
  cfg.base.estimation_noise = GetDouble(args, "noise", 0.0);
  cfg.base.adapt_headroom = GetDouble(args, "adapt_H", 0.0) != 0.0;
  cfg.base.constant_rate = GetDouble(args, "rate", 150.0);
  cfg.base.pareto.beta = GetDouble(args, "beta", 1.0);
  cfg.base.seed = GetUnsigned(args, "seed", 42);
  const double poles = GetDouble(args, "poles", 0.7);
  cfg.base.gains = DesignPolePlacement(poles, poles);

  cfg.time_compression = GetDouble(args, "compress", 20.0);
  cfg.ring_capacity = GetUnsigned(args, "ring", 4096, 1, kRtMaxRingCapacity);
  cfg.batch = static_cast<size_t>(GetUnsigned(args, "batch", 1, 1, 4096));
  cfg.batch_adaptive = GetDouble(args, "batch_adaptive", 0.0) != 0.0;
  cfg.pin_cpus = GetString(args, "pin_cpus", "");
  cfg.cost_mode = GetDouble(args, "busy_spin", 0.0) != 0.0
                      ? RtCostMode::kBusySpin
                      : RtCostMode::kSleep;
  cfg.workers = GetWorkers(args);
  SetupTelemetry(args, &cfg.base);
  const std::string trace_out = GetString(args, "trace_out", "");
  RejectLeftovers(args);

  // Clean CLI error — an actionable message and exit 2 — instead of the
  // runtime's CS_CHECK abort for configs the rt path cannot run.
  if (ConfigFails("rt", RtConfigError(cfg))) return 2;

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
  return WriteRecorder(r.recorder, trace_out);
}

int CmdTrace(Args args) {
  const std::string kind = GetString(args, "kind", "pareto");
  const double duration = GetDouble(args, "duration", 400.0);
  const uint64_t seed = GetUnsigned(args, "seed", 42);
  RateTrace trace;
  if (kind == "web") {
    trace = MakeWebTrace(duration, WebTraceParams{}, seed);
  } else if (kind == "pareto") {
    ParetoTraceParams p;
    p.beta = GetDouble(args, "beta", 1.0);
    trace = MakeParetoTrace(duration, p, seed);
  } else if (kind == "mmpp") {
    trace = MakeMmppTrace(duration, MmppTraceParams{}, seed);
  } else if (kind == "cost") {
    trace = MakeCostTrace(duration, CostTraceParams{}, seed);
  } else {
    std::fprintf(stderr, "kind must be web|pareto|mmpp|cost\n");
    return 2;
  }
  RejectLeftovers(args);
  WriteTrace(trace, std::cout);
  return 0;
}

int CmdNode(Args args) {
  ClusterNodeConfig cfg;
  cfg.node_id = static_cast<uint32_t>(GetUnsigned(args, "id", 0, 0, 1 << 20));
  cfg.workers = GetWorkers(args);
  cfg.ingress_port = static_cast<int>(GetUnsigned(args, "port", 0, 0, 65535));
  cfg.controller_host = GetString(args, "controller_host", "127.0.0.1");
  cfg.controller_port =
      static_cast<int>(GetUnsigned(args, "controller_port", 0, 0, 65535));
  cfg.base.duration = GetDouble(args, "duration", 60.0);
  cfg.base.period = GetDouble(args, "T", 1.0);
  cfg.base.target_delay = GetDouble(args, "yd", 2.0);
  cfg.base.headroom_true = GetDouble(args, "H_true", 0.97);
  cfg.base.headroom_est = GetDouble(args, "H", 0.97);
  cfg.base.capacity_rate = GetDouble(args, "capacity", 190.0);
  cfg.base.vary_cost = GetDouble(args, "vary_cost", 0.0) != 0.0;
  cfg.base.adapt_headroom = GetDouble(args, "adapt_H", 0.0) != 0.0;
  cfg.base.seed = GetUnsigned(args, "seed", 42);
  cfg.time_compression = GetDouble(args, "compress", 20.0);
  cfg.ring_capacity = GetUnsigned(args, "ring", 4096, 1, kRtMaxRingCapacity);
  cfg.batch = static_cast<size_t>(GetUnsigned(args, "batch", 1, 1, 4096));
  cfg.pin_cpus = GetString(args, "pin_cpus", "");
  cfg.cost_mode = GetDouble(args, "busy_spin", 0.0) != 0.0
                      ? RtCostMode::kBusySpin
                      : RtCostMode::kSleep;
  SetupTelemetry(args, &cfg.base);
  RejectLeftovers(args);
  if (ConfigFails("node", ExperimentConfigError(cfg.base)) ||
      ConfigFails("node", RtPlantError(cfg.workers, cfg.time_compression,
                                       cfg.ring_capacity, cfg.batch,
                                       cfg.pin_cpus))) {
    return 2;
  }

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

int CmdCluster(Args args) {
  ClusterControllerConfig cfg;
  cfg.port = static_cast<int>(GetUnsigned(args, "port", 0, 0, 65535));
  cfg.base.duration = GetDouble(args, "duration", 60.0);
  cfg.base.period = GetDouble(args, "T", 1.0);
  cfg.base.target_delay = GetDouble(args, "yd", 2.0);
  cfg.base.headroom_true = GetDouble(args, "H_true", 0.97);
  cfg.base.headroom_est = GetDouble(args, "H", 0.97);
  cfg.base.capacity_rate = GetDouble(args, "capacity", 190.0);
  cfg.base.use_queue_shedder = GetDouble(args, "queue_shed", 0.0) != 0.0;
  cfg.base.cost_aware_shedding = GetDouble(args, "cost_aware", 0.0) != 0.0;
  cfg.base.adapt_headroom = GetDouble(args, "adapt_H", 0.0) != 0.0;
  const double poles = GetDouble(args, "poles", 0.7);
  cfg.base.gains = DesignPolePlacement(poles, poles);
  cfg.stale_periods =
      static_cast<int>(GetUnsigned(args, "stale_periods", 3, 1, 1000));
  cfg.min_nodes = static_cast<int>(GetUnsigned(args, "min_nodes", 0, 0, 1024));
  cfg.time_compression = GetPositive(args, "compress", 20.0);
  const bool gate = GetDouble(args, "gate", 0.0) != 0.0;
  const std::string trace_out = GetString(args, "trace_out", "");
  SetupTelemetry(args, &cfg.base);
  RejectLeftovers(args);
  if (ConfigFails("cluster", ExperimentConfigError(cfg.base))) return 2;

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
  const int wret = WriteRecorder(r.recorder, trace_out);
  if (!gate) return wret;

  // The rt_soak tracking gate on the aggregate plant: over the overloaded
  // periods (fin at or above the cluster's total capacity) the converged
  // delay estimate must sit within +/-20% of the setpoint; a run that
  // never overloaded must keep the estimate at or below the setpoint band.
  const double yd = cfg.base.target_delay;
  const double agg_capacity =
      static_cast<double>(r.total_workers) * cfg.base.capacity_rate;
  const int kConvergedAfter = 4;
  double sum = 0.0, sum_all = 0.0;
  int n = 0, n_all = 0;
  for (const PeriodRecord& row : r.recorder.rows()) {
    if (row.m.k <= kConvergedAfter) continue;
    sum_all += row.m.y_hat;
    ++n_all;
    if (row.m.fin < agg_capacity) continue;
    sum += row.m.y_hat;
    ++n;
  }
  const double mean_yhat = n > 0 ? sum / n : 0.0;
  const double rel_err = yd > 0.0 ? std::abs(mean_yhat - yd) / yd : 0.0;
  const double mean_all = n_all > 0 ? sum_all / n_all : 0.0;
  bool pass;
  if (n >= 8) {
    pass = rel_err <= 0.20;
    std::printf("%s: converged mean y %.3f s vs setpoint %.3f s "
                "(error %.1f%%, %d overloaded periods)\n",
                pass ? "PASS" : "FAIL", mean_yhat, yd, 100.0 * rel_err, n);
  } else {
    pass = n_all >= 8 && mean_all <= 1.2 * yd;
    std::printf("%s: aggregate never overloaded (%d overloaded periods); "
                "mean y %.3f s stays at or below the setpoint band\n",
                pass ? "PASS" : "FAIL", n, mean_all);
  }
  return (pass && wret == 0) ? 0 : 1;
}

int CmdFeed(Args args) {
  ClusterFeedConfig cfg;
  cfg.host = GetString(args, "host", "127.0.0.1");
  cfg.port = static_cast<int>(GetUnsigned(args, "port", 0, 1, 65535));
  cfg.source_id =
      static_cast<uint32_t>(GetUnsigned(args, "source", 0, 0, 1 << 20));
  cfg.sources = static_cast<int>(GetUnsigned(args, "sources", 1, 1, 64));
  cfg.rate_scale = GetPositive(args, "scale", 1.0);
  cfg.base.workload = ParseWorkload(GetString(args, "workload", "web"));
  cfg.base.duration = GetDouble(args, "duration", 60.0);
  cfg.base.constant_rate = GetDouble(args, "rate", 150.0);
  cfg.base.pareto.beta = GetDouble(args, "beta", 1.0);
  if (args.count("mean_rate") != 0) {
    cfg.base.web.mean_rate = GetDouble(args, "mean_rate", 0.0);
  }
  cfg.base.seed = GetUnsigned(args, "seed", 42);
  cfg.time_compression = GetPositive(args, "compress", 20.0);
  RejectLeftovers(args);
  if (ConfigFails("feed", ExperimentConfigError(cfg.base))) return 2;

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

/// `ctrlshed trace-merge [out=FILE] [require_period_overlap=0|1] IN...`
/// Hand-parsed: bare tokens are input trace.json paths, so the shared
/// key=value parser (which rejects them) does not apply.
int CmdTraceMerge(int argc, char** argv) {
  std::string out_path = "trace_merged.json";
  bool require_overlap = false;
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) == 0) {
      tok = tok.substr(2);
      for (char& c : tok) {
        if (c == '-') c = '_';
      }
      if (tok.find('=') == std::string::npos) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "option --%s needs a value\n", tok.c_str());
          return 2;
        }
        tok += '=';
        tok += argv[++i];
      }
    }
    const size_t eq = tok.find('=');
    if (eq != std::string::npos && eq > 0) {
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      if (key == "out") {
        out_path = val;
        continue;
      }
      if (key == "require_period_overlap") {
        require_overlap = ParseNumber(key, val) != 0.0;
        continue;
      }
      std::fprintf(stderr, "unknown trace-merge option '%s'\n", key.c_str());
      return 2;
    }
    inputs.push_back(tok);
  }
  if (inputs.size() < 2) {
    std::fprintf(stderr,
                 "trace-merge needs at least two input trace.json files\n");
    return 2;
  }
  TraceMergeResult res;
  if (!MergeTraceFiles(inputs, out_path, &res)) {
    std::fprintf(stderr, "trace-merge: %s\n", res.error.c_str());
    return 1;
  }
  for (size_t i = 0; i < res.files; ++i) {
    std::printf("  track %-16s %zu events, clock offset %+lld us\n",
                res.labels[i].c_str(), res.events_per_file[i],
                static_cast<long long>(res.offsets_us[i]));
  }
  std::printf("merged %zu events from %zu files into %s\n", res.events,
              res.files, out_path.c_str());
  if (res.common_periods.empty()) {
    std::printf("no controller period id appears in every track\n");
    if (require_overlap) return 1;
  } else {
    std::printf("%zu controller period(s) traced across every track "
                "(e.g. period %lld)\n",
                res.common_periods.size(),
                static_cast<long long>(res.common_periods.front()));
  }
  return 0;
}

int CmdDesign(Args args) {
  const double p = GetDouble(args, "poles", 0.7);
  const double a = GetDouble(args, "a", -0.8);
  RejectLeftovers(args);
  ControllerGains g = DesignPolePlacement(p, p, a);
  std::printf("closed-loop poles at %.3f (damping 1)\n", p);
  std::printf("controller C(z) = H (b0 z + b1) / (c T (z + a))\n");
  std::printf("  b0 = %.6f\n  b1 = %.6f\n  a  = %.6f\n", g.b0, g.b1, g.a);
  std::printf("control law: u(k) = H/(cT) (b0 e(k) + b1 e(k-1)) - a u(k-1)\n");
  return 0;
}

void PrintHelp() {
  std::printf(
      "ctrlshed — control-based load shedding for stream databases\n\n"
      "  ctrlshed run    [method=ctrl|baseline|aurora|pi|none]\n"
      "                  [workload=web|pareto|mmpp|step|sine|ramp|constant]\n"
      "                  [duration=400] [T=1] [yd=2] [H=0.97] [H_true=0.97]\n"
      "                  [capacity=190] [rate=150] [beta=1.0] [poles=0.7]\n"
      "                  [vary_cost=0|1] [queue_shed=0|1] [cost_aware=0|1]\n"
      "                  [noise=0] [adapt_H=0|1] [seed=42] [trace_out=FILE]\n"
      "                  [telemetry_dir=DIR] [telemetry_port=N]\n"
      "  ctrlshed rt     [method=...] [workload=...] [duration=60] [T=1]\n"
      "                  [yd=2] [H=0.97] [H_true=0.97] [capacity=190]\n"
      "                  [rate=150] [beta=1.0] [poles=0.7] [vary_cost=0|1]\n"
      "                  [queue_shed=0|1] [cost_aware=0|1] [adapt_H=0|1]\n"
      "                  [compress=20] [ring=4096] [busy_spin=0|1]\n"
      "                  [workers=1] [batch=1] [batch_adaptive=0|1]\n"
      "                  [pin_cpus=auto|LIST] [seed=42] [trace_out=FILE]\n"
      "                  [telemetry_dir=DIR] [telemetry_port=N]\n"
      "                  (wall-clock threaded runtime; compress = trace\n"
      "                  seconds replayed per wall second; workers=N in\n"
      "                  [1,64] partitions the plant across N engine\n"
      "                  shards under one aggregate feedback loop;\n"
      "                  batch=B in [1,4096] sets the datapath batch —\n"
      "                  SPSC pop run length and invocation quantum —\n"
      "                  with batch=1 the bit-identical per-tuple path;\n"
      "                  batch_adaptive=1 lets the controller grow each\n"
      "                  worker's quantum past B under backlog and shrink\n"
      "                  it back with latency headroom; pin_cpus=auto pins\n"
      "                  shard i to CPU i%%ncpu, pin_cpus=0,2,... pins to\n"
      "                  an explicit list;\n"
      "                  vary_cost/queue_shed/cost_aware mirror the sim\n"
      "                  knobs: the Fig. 14 cost trace sampled on each\n"
      "                  worker's clock, and in-network shedding from\n"
      "                  controller-planned per-period queue budgets)\n"
      "\n"
      "  telemetry_dir=DIR (or --telemetry-dir DIR) writes trace.json\n"
      "  (Chrome trace-event JSON; open in Perfetto), metrics.jsonl\n"
      "  (periodic metric snapshots), and timeline.csv/.jsonl (per-period\n"
      "  q, y_hat, e, u, v, alpha, loss, lateness, actuation site,\n"
      "  queue_shed) into DIR.\n"
      "  telemetry_port=N (or --telemetry-port N) serves live telemetry on\n"
      "  http://127.0.0.1:N — GET / (dashboard), /metrics (Prometheus),\n"
      "  /timeline (SSE rows identical to timeline.jsonl), /status (JSON),\n"
      "  /health (control-loop verdict JSON; 503 when critical),\n"
      "  /fleet (cluster membership JSON on a controller), and\n"
      "  POST /debug/dump (write a flight-recorder dump on demand).\n"
      "  SIGUSR1 also dumps; CS_CHECK failures and fatal signals dump\n"
      "  automatically to <telemetry_dir>/ctrlshed.flightdump.json (or the\n"
      "  working directory without telemetry_dir).\n"
      "  N=0 picks an ephemeral port (printed at startup). Works with or\n"
      "  without telemetry_dir. SIGINT/SIGTERM on `ctrlshed rt` stops the\n"
      "  run early and still flushes complete trace/timeline files.\n"
      "  telemetry_bind=ADDR serves on a non-loopback address; it then\n"
      "  REQUIRES telemetry_token=SECRET (requests authenticate with\n"
      "  `Authorization: Bearer SECRET` or `?token=SECRET`; anything else\n"
      "  gets 401). Loopback binds stay open by default.\n"
      "  trace_out=FILE writes the per-period CSV, the columns of\n"
      "  timeline.csv (e.g. trace_out=run.csv).\n"
      "  ctrlshed trace  [kind=web|pareto|mmpp|cost] [duration=400]\n"
      "                  [beta=1.0] [seed=42]            (trace to stdout)\n"
      "  ctrlshed trace-merge [out=trace_merged.json]\n"
      "                  [require_period_overlap=0|1] TRACE.json...\n"
      "                  (joins per-process trace.json files into one\n"
      "                  Perfetto timeline: per-process tracks, clock\n"
      "                  offsets from the cluster HELLO handshake applied,\n"
      "                  controller period ids intersected across tracks;\n"
      "                  require_period_overlap=1 exits nonzero unless one\n"
      "                  period id was traced in every input)\n"
      "  ctrlshed design [poles=0.7] [a=-0.8]    (print controller gains)\n"
      "\n"
      "  ctrlshed cluster [port=0] [duration=60] [T=1] [yd=2] [H=0.97]\n"
      "                  [capacity=190] [poles=0.7] [queue_shed=0|1]\n"
      "                  [cost_aware=0|1] [stale_periods=3]\n"
      "                  [min_nodes=0] [compress=20] [gate=0|1]\n"
      "                  [trace_out=FILE] [telemetry_dir=DIR]\n"
      "                  [telemetry_port=N]\n"
      "                  (cluster controller: nodes connect to `port`,\n"
      "                  their stats aggregate into one plant, v(k) fans\n"
      "                  back out — with queue_shed=1 the commands carry\n"
      "                  in-network plan flags the nodes act on; gate=1\n"
      "                  exits nonzero unless the converged delay tracks\n"
      "                  the setpoint within 20%%)\n"
      "  ctrlshed node   [id=0] [workers=1] [port=0]\n"
      "                  [controller_host=127.0.0.1] [controller_port=P]\n"
      "                  [duration=60] [T=1] [yd=2] [H=0.97] [H_true=0.97]\n"
      "                  [capacity=190] [vary_cost=0|1] [compress=20]\n"
      "                  [ring=4096] [batch=1] [pin_cpus=auto|LIST]\n"
      "                  [busy_spin=0|1] [seed=42]\n"
      "                  [telemetry_dir=DIR] [telemetry_port=N]\n"
      "                  (cluster member: serves tuple ingress on `port`,\n"
      "                  reports per-period stats upstream, applies the\n"
      "                  controller's v(k) slice to its entry shedders;\n"
      "                  keeps shedding locally if the controller is gone)\n"
      "  ctrlshed feed   host=H port=P [source=0] [sources=1] [scale=1]\n"
      "                  [workload=web|...] [mean_rate=R] [rate=150]\n"
      "                  [duration=60] [compress=20] [seed=42]\n"
      "                  (replays the workload trace into a node's tuple\n"
      "                  ingress; scale multiplies the offered rate)\n"
      "  ctrlshed version                        (print the build id)\n"
      "  ctrlshed help\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Process-wide: a peer that closes its socket mid-write must surface as
  // an EPIPE error code, never as a fatal signal (cluster roles write to
  // sockets from several threads).
  IgnoreSigPipe();
  if (argc < 2 || std::strcmp(argv[1], "help") == 0) {
    PrintHelp();
    return argc < 2 ? 2 : 0;
  }
  const std::string cmd = argv[1];
  if (cmd == "version" || cmd == "--version" || cmd == "-V") {
    std::printf("%s\n", BuildInfoLine().c_str());
    return 0;
  }
  if (cmd == "run") return CmdRun(ParseArgs(argc, argv, 2));
  if (cmd == "rt") return CmdRt(ParseArgs(argc, argv, 2));
  if (cmd == "node") return CmdNode(ParseArgs(argc, argv, 2));
  if (cmd == "cluster") return CmdCluster(ParseArgs(argc, argv, 2));
  if (cmd == "feed") return CmdFeed(ParseArgs(argc, argv, 2));
  if (cmd == "trace") return CmdTrace(ParseArgs(argc, argv, 2));
  if (cmd == "trace-merge") return CmdTraceMerge(argc, argv);
  if (cmd == "design") return CmdDesign(ParseArgs(argc, argv, 2));
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  PrintHelp();
  return 2;
}
