#ifndef CTRLSHED_TOOLS_CLI_COMMANDS_H_
#define CTRLSHED_TOOLS_CLI_COMMANDS_H_

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/controller_runner.h"
#include "cluster/feeder.h"
#include "cluster/node_runner.h"
#include "rt/rt_runtime.h"
#include "runner/experiment.h"

namespace ctrlshed {

// The knob tables of every `ctrlshed` subcommand, `rt_soak` and
// `overhead_telemetry`. Each *Args struct (RunArgs for `ctrlshed run`, and
// so on) is what the command's line sets, at the command's defaults. Parse
// walks the command's rows (common/knob.h) over the tokens after the
// command name, then the runners' own checks (ExperimentConfigError,
// RtConfigError, RtPlantError), and returns "" or the message to exit 2
// with. `poles` places both closed-loop poles, and its row designs the
// config's gains.

struct RunArgs {
  RunArgs() { cfg.workload = WorkloadKind::kPareto; }
  ExperimentConfig cfg;
  double poles = 0.7;
  std::string trace_out;
};
struct RtArgs {
  RtArgs() {
    cfg.base.workload = WorkloadKind::kPareto;
    cfg.base.duration = 60.0;
  }
  RtRunConfig cfg;
  double poles = 0.7;
  std::string trace_out;
};
struct NodeArgs {
  NodeArgs() { cfg.base.duration = 60.0; }
  ClusterNodeConfig cfg;
};
struct ClusterArgs {
  ClusterArgs() { cfg.base.duration = 60.0; }
  ClusterControllerConfig cfg;
  double poles = 0.7;
  bool gate = false;  ///< Exit 1 unless TrackingGate passes.
  std::string trace_out;
};
struct FeedArgs {
  FeedArgs() { cfg.base.duration = 60.0; }
  ClusterFeedConfig cfg;
};
enum class TraceKind { kWeb, kPareto, kMmpp, kCost };
/// `ctrlshed trace`: duration, seed and beta land in `cfg`.
struct TraceArgs {
  TraceKind kind = TraceKind::kPareto;
  ExperimentConfig cfg;
};
/// `ctrlshed trace-merge`: the bare tokens are the input trace.json files.
struct TraceMergeArgs {
  std::string out = "trace_merged.json";
  bool require_period_overlap = false;
  std::vector<std::string> inputs;
};
struct DesignArgs {
  double poles = 0.7;
  double a = -0.8;
  ControllerGains gains;
};
/// `rt_soak`.
struct SoakArgs {
  SoakArgs() {
    cfg.base.workload = WorkloadKind::kWeb;
    cfg.base.duration = 60.0;
    cfg.time_compression = 15.0;
  }
  RtRunConfig cfg;
  double overload = 2.0;  ///< Web-trace mean over ONE worker's capacity.
};
/// `overhead_telemetry`.
struct OverheadArgs {
  OverheadArgs() {
    cfg.base.workload = WorkloadKind::kConstant;
    cfg.base.constant_rate = 380.0;
    cfg.base.duration = 40.0;
  }
  RtRunConfig cfg;
  int reps = 2;
  std::string out = "out/overhead_telemetry";
  bool cluster = true;
};

std::string Parse(int argc, char* const* argv, RunArgs* args);
std::string Parse(int argc, char* const* argv, RtArgs* args);
std::string Parse(int argc, char* const* argv, NodeArgs* args);
std::string Parse(int argc, char* const* argv, ClusterArgs* args);
std::string Parse(int argc, char* const* argv, FeedArgs* args);
std::string Parse(int argc, char* const* argv, TraceArgs* args);
std::string Parse(int argc, char* const* argv, TraceMergeArgs* args);
std::string Parse(int argc, char* const* argv, DesignArgs* args);
std::string Parse(int argc, char* const* argv, SoakArgs* args);
std::string Parse(int argc, char* const* argv, OverheadArgs* args);

/// `ctrlshed help`: each subcommand's rows at their defaults, then what is
/// not a knob (flight dumps, signals).
void PrintHelp(std::FILE* out);

}  // namespace ctrlshed

#endif  // CTRLSHED_TOOLS_CLI_COMMANDS_H_
