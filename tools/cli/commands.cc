#include "cli/commands.h"

#include "common/knob.h"

namespace ctrlshed {

namespace {

const std::string kTelemetry =
    " telemetry_dir telemetry_port telemetry_bind telemetry_token";

Knobs Join(std::vector<Knobs> parts) {
  Knobs all;
  for (Knobs& part : parts) all.insert(all.end(), part.begin(), part.end());
  return all;
}

/// Every knob that lands in an ExperimentConfig.
Knobs ExperimentKnobs(ExperimentConfig& c) {
  TelemetryOptions& t = c.telemetry;
  return {
      Choice<Method>("method", &c.method,
                     {{"ctrl", Method::kCtrl}, {"baseline", Method::kBaseline},
                      {"aurora", Method::kAurora}, {"pi", Method::kPi},
                      {"none", Method::kNone}},
                     "load-shedding policy"),
      Choice<WorkloadKind>(
          "workload", &c.workload,
          {{"web", WorkloadKind::kWeb}, {"pareto", WorkloadKind::kPareto},
           {"mmpp", WorkloadKind::kMmpp}, {"step", WorkloadKind::kStep},
           {"sine", WorkloadKind::kSine}, {"ramp", WorkloadKind::kRamp},
           {"constant", WorkloadKind::kConstant}},
          "arrival-rate trace"),
      Number("duration", &c.duration, "run length, trace seconds"),
      Number("T", &c.period, "control period, s"),
      Number("yd", &c.target_delay, "target delay, s"),
      Number("H", &c.headroom_est, "headroom the controller assumes"),
      Number("H_true", &c.headroom_true, "the engine's real headroom"),
      Number("capacity", &c.capacity_rate, "tuples/s one engine sustains"),
      Number("rate", &c.constant_rate, "tuples/s of workload=constant"),
      Number("beta", &c.pareto.beta, "Pareto bias factor", 0.0),
      Number("mean_rate", &c.web.mean_rate, "mean tuples/s of workload=web"),
      Switch("vary_cost", &c.vary_cost, "the Fig. 14 cost trace"),
      Switch("queue_shed", &c.use_queue_shedder, "shed in-network too"),
      Switch("cost_aware", &c.cost_aware_shedding,
             "in-network victims by cost"),
      Switch("adapt_H", &c.adapt_headroom, "estimate the headroom online"),
      Number("noise", &c.estimation_noise, "cost-estimate noise (sim only)"),
      Integer("seed", &c.seed, 0, UINT64_MAX, "random seed"),
      Text("telemetry_dir", &t.dir,
           "write trace.json, metrics.jsonl, timeline.csv/.jsonl here"),
      Integer("telemetry_port", &t.server_port, 0, 65535,
              "serve live telemetry here (0 = ephemeral)"),
      Text("telemetry_bind", &t.server_bind_address,
           "server address; off loopback it needs a token"),
      Text("telemetry_token", &t.server_auth_token,
           "bearer token the server requires"),
  };
}

/// Both closed-loop poles, which design `gains`; Appendix A's design is
/// stable with them inside the unit circle.
Knob Poles(double* poles, ControllerGains* gains) {
  Knob k = Number("poles", poles, "closed-loop poles, both", -1.0, 1.0);
  k.set = [set = k.set, poles, gains](const std::string& text) {
    const bool ok = set(text);
    if (ok) *gains = DesignPolePlacement(*poles, *poles);
    return ok;
  };
  return k;
}

Knob TraceOut(std::string* path) {
  return Text("trace_out", path, "write the per-period CSV here");
}

Knob Compress(double* compression) {
  return Number("compress", compression, "trace seconds per wall second",
                0.0);
}

/// The rt plant's knobs, which `rt` and `node` share.
Knobs PlantKnobs(RtPlantConfig& p) {
  return {
      Compress(&p.time_compression),
      Integer("workers", &p.workers, 1, 64, "engine shards under one loop"),
      Integer("ring", &p.ring_capacity, 1, kRtMaxRingCapacity,
              "ingress ring per shard, tuples"),
      Integer("batch", &p.batch, 1, 4096, "SPSC pop run and quantum"),
      Text("pin_cpus", &p.pin_cpus, "pin shards: auto, or a CPU list 0,2,..."),
  };
}

Knobs RtKnobs(RtRunConfig& c) {
  return Join({ExperimentKnobs(c.base), PlantKnobs(c)});
}

Knobs KnobsOf(RunArgs& a) {
  return Pick(Join({ExperimentKnobs(a.cfg),
                    {Poles(&a.poles, &a.cfg.gains), TraceOut(&a.trace_out)}}),
              "method workload duration T yd H H_true capacity rate beta "
              "poles vary_cost queue_shed cost_aware noise adapt_H seed "
              "trace_out" + kTelemetry);
}

Knobs KnobsOf(RtArgs& a) {
  return Pick(Join({RtKnobs(a.cfg),
                    {Poles(&a.poles, &a.cfg.base.gains),
                     TraceOut(&a.trace_out)}}),
              "method workload duration T yd H H_true capacity rate beta "
              "poles vary_cost queue_shed cost_aware noise adapt_H seed "
              "compress workers ring batch pin_cpus trace_out" + kTelemetry);
}

Knobs KnobsOf(NodeArgs& a) {
  ClusterNodeConfig& c = a.cfg;
  return Pick(Join({ExperimentKnobs(c.base), PlantKnobs(c),
                    {Integer("id", &c.node_id, 0, 1 << 20, "node id"),
                     Integer("port", &c.ingress_port, 0, 65535,
                             "tuple ingress port (0 = ephemeral)"),
                     Text("controller_host", &c.controller_host,
                          "cluster controller address"),
                     Integer("controller_port", &c.controller_port, 0, 65535,
                             "cluster controller port")}}),
              "id port controller_host controller_port duration T yd H "
              "H_true capacity vary_cost adapt_H seed compress workers ring "
              "batch pin_cpus" + kTelemetry);
}

Knobs KnobsOf(ClusterArgs& a) {
  ClusterControllerConfig& c = a.cfg;
  return Pick(
      Join({ExperimentKnobs(c.base),
            {Integer("port", &c.port, 0, 65535, "control port (0 = ephemeral)"),
             Poles(&a.poles, &c.base.gains), Compress(&c.time_compression),
             Integer("stale_periods", &c.stale_periods, 1, 1000,
                     "silent periods before a node is excluded"),
             Integer("min_nodes", &c.min_nodes, 0, 1024,
                     "nodes to wait for before the first tick"),
             Switch("gate", &a.gate, "exit 1 unless y tracks yd within 20%"),
             TraceOut(&a.trace_out)}}),
      "port duration T yd H H_true capacity poles queue_shed cost_aware "
      "adapt_H stale_periods min_nodes compress gate trace_out" + kTelemetry);
}

Knobs KnobsOf(FeedArgs& a) {
  ClusterFeedConfig& c = a.cfg;
  return Pick(Join({ExperimentKnobs(c.base),
                    {Text("host", &c.host, "node address"),
                     Integer("port", &c.port, 1, 65535,
                             "the node's ingress port; required"),
                     Integer("source", &c.source_id, 0, 1 << 20,
                             "wire source id of the first stream"),
                     Integer("sources", &c.sources, 1, 64, "replay streams"),
                     Number("scale", &c.rate_scale, "offered-rate multiplier",
                            0.0),
                     Compress(&c.time_compression)}}),
              "host port source sources scale workload mean_rate rate beta "
              "duration compress seed");
}

Knobs KnobsOf(TraceArgs& a) {
  return Pick(Join({ExperimentKnobs(a.cfg),
                    {Choice<TraceKind>("kind", &a.kind,
                                       {{"web", TraceKind::kWeb},
                                        {"pareto", TraceKind::kPareto},
                                        {"mmpp", TraceKind::kMmpp},
                                        {"cost", TraceKind::kCost}},
                                       "trace generator")}}),
              "kind duration beta seed");
}

Knobs KnobsOf(TraceMergeArgs& a) {
  return {Text("out", &a.out, "merged trace file"),
          Switch("require_period_overlap", &a.require_period_overlap,
                 "exit 1 unless one period id is in every input")};
}

Knobs KnobsOf(DesignArgs& a) {
  return {Poles(&a.poles, &a.gains), Number("a", &a.a, "controller pole")};
}

Knobs KnobsOf(SoakArgs& a) {
  return Pick(Join({RtKnobs(a.cfg),
                    {Number("overload", &a.overload,
                            "web-trace mean over one worker's capacity", 0.0),
                     Choice<std::string>("pin", &a.cfg.pin_cpus,
                                         {{"0", ""}, {"1", "auto"}},
                                         "pin worker i to CPU i % ncpu")}}),
              "duration compress yd overload seed workers batch pin "
              "telemetry_dir telemetry_port");
}

Knobs KnobsOf(OverheadArgs& a) {
  return Join({Pick(RtKnobs(a.cfg), "duration compress rate"),
               {Integer("reps", &a.reps, 1, 100, "runs per config, best kept"),
                Text("out", &a.out, "telemetry directory root"),
                Switch("cluster", &a.cluster, "also run the fleet cell")}});
}

/// Walks `args`' rows over the tokens; then, when they parsed, `check`
/// (the runners' own rules).
template <class Args, class Check>
std::string Walk(const char* command, int argc, char* const* argv, Args* args,
                 Check check, std::vector<std::string>* positionals = nullptr) {
  Knobs knobs = KnobsOf(*args);
  const std::string error =
      ParseKnobs(command, knobs, argc, argv, positionals);
  return error.empty() ? check(knobs) : error;
}

template <class Args>
void PrintCommand(std::FILE* out, const char* usage, const char* what) {
  Args defaults;
  std::fprintf(out, "\nctrlshed %s — %s\n", usage, what);
  PrintKnobs(KnobsOf(defaults), out);
}

}  // namespace

std::string Parse(int argc, char* const* argv, RunArgs* args) {
  return Walk("run", argc, argv, args,
              [&](Knobs&) { return ExperimentConfigError(args->cfg); });
}

std::string Parse(int argc, char* const* argv, RtArgs* args) {
  return Walk("rt", argc, argv, args,
              [&](Knobs&) { return RtConfigError(args->cfg); });
}

std::string Parse(int argc, char* const* argv, NodeArgs* args) {
  const ClusterNodeConfig& c = args->cfg;
  return Walk("node", argc, argv, args, [&](Knobs&) {
    const std::string error = ExperimentConfigError(c.base);
    return !error.empty() ? error : RtPlantError(c);
  });
}

std::string Parse(int argc, char* const* argv, ClusterArgs* args) {
  return Walk("cluster", argc, argv, args,
              [&](Knobs&) { return ExperimentConfigError(args->cfg.base); });
}

std::string Parse(int argc, char* const* argv, FeedArgs* args) {
  return Walk("feed", argc, argv, args, [&](Knobs&) {
    // The port row takes no 0, so 0 means the line left it out.
    if (args->cfg.port == 0) return std::string("port is required");
    return ExperimentConfigError(args->cfg.base);
  });
}

std::string Parse(int argc, char* const* argv, TraceArgs* args) {
  return Walk("trace", argc, argv, args, [&](Knobs& knobs) {
    if (args->kind != TraceKind::kPareto && FindKnob(knobs, "beta")->given) {
      return std::string("beta applies to kind=pareto only");
    }
    return ExperimentConfigError(args->cfg);
  });
}

std::string Parse(int argc, char* const* argv, TraceMergeArgs* args) {
  return Walk(
      "trace-merge", argc, argv, args,
      [&](Knobs&) {
        return args->inputs.size() >= 2
                   ? ""
                   : "needs at least two input trace.json files";
      },
      &args->inputs);
}

std::string Parse(int argc, char* const* argv, DesignArgs* args) {
  return Walk("design", argc, argv, args, [&](Knobs&) {
    args->gains = DesignPolePlacement(args->poles, args->poles, args->a);
    return "";
  });
}

std::string Parse(int argc, char* const* argv, SoakArgs* args) {
  return Walk("rt_soak", argc, argv, args, [&](Knobs&) {
    args->cfg.base.web.mean_rate =
        args->overload * args->cfg.base.capacity_rate;
    return RtConfigError(args->cfg);
  });
}

std::string Parse(int argc, char* const* argv, OverheadArgs* args) {
  return Walk("overhead_telemetry", argc, argv, args,
              [&](Knobs&) { return RtConfigError(args->cfg); });
}

void PrintHelp(std::FILE* out) {
  std::fprintf(out,
               "ctrlshed — control-based load shedding for stream databases\n"
               "\n"
               "  ctrlshed COMMAND [key=value ...], also --key value and "
               "--key=value\n"
               "  (a '-' in a --key reads as '_'); each command's knobs at "
               "their defaults:\n");
  PrintCommand<RunArgs>(out, "run", "one closed-loop experiment, simulated");
  PrintCommand<RtArgs>(out, "rt", "the loop on wall-clock threads");
  PrintCommand<NodeArgs>(out, "node", "cluster member: ingress and shards");
  PrintCommand<ClusterArgs>(out, "cluster", "cluster controller");
  PrintCommand<FeedArgs>(out, "feed", "replays a workload into a node");
  PrintCommand<TraceArgs>(out, "trace", "writes a workload trace to stdout");
  PrintCommand<TraceMergeArgs>(out, "trace-merge TRACE.json...",
                               "joins per-process traces into one");
  PrintCommand<DesignArgs>(out, "design", "prints the controller gains");
  std::fprintf(
      out,
      "\nctrlshed version — prints the build id\n"
      "\n"
      "telemetry_port serves / (dashboard), /metrics, /timeline (SSE),\n"
      "/status, /health, /fleet and POST /debug/dump. A CS_CHECK failure, a\n"
      "fatal signal, SIGUSR1 or /debug/dump writes a flight-recorder dump to\n"
      "<telemetry_dir>/ctrlshed.flightdump.json (the working directory\n"
      "without telemetry_dir). The first SIGINT or SIGTERM stops rt, node,\n"
      "cluster or feed early and still flushes its trace and timeline\n"
      "files; a second one kills it.\n");
}

}  // namespace ctrlshed
