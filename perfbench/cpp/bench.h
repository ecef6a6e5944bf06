// Shared declarations of the end-to-end shedding benchmark: the command
// line, the result every workload fills in, and the workload definitions
// that the tracing-off runs and the traced replay both use.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "metrics/recorder.h"
#include "runner/experiment.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "perfbench-out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the verdict of its output checks, the operation
/// counts, and the metrics in the order they are printed.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;  ///< Tuples generated.
  uint64_t failed = 0;     ///< Tuples lost involuntarily (see FailedRatio).
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Human-readable lines, printed first.

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Records a failed check; the run then reports correct=false.
  void Fail(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
  void Check(const std::string& error, const char* what) {
    if (!error.empty()) Fail(std::string(what) + ": " + error);
  }
};

// --- Workload definitions ---------------------------------------------------
//
// Every workload scales the paper's per-engine capacity (190 tuples/s) and
// its offered rate by the same factor S, which leaves the loop dynamics
// unchanged (see perfbench/README.md).

inline constexpr double kPaperCapacity = 190.0;

/// sim_fig14: the paper's Section 5 setup in the discrete-event sim.
inline constexpr double kSimScale = 30.0;
ctrlshed::ExperimentConfig SimFig14Config(uint64_t seed);

/// rt_web: RunRtExperiment on the web trace at twice the paper's web rate
/// (2.1x the capacity on average, so the loop sheds through most of the
/// run). The wall-clock load is S x compression x rate: 400k tuples per
/// wall second on average. Compression 100 replays 2000 trace seconds per
/// 20 s run; the web trace's bursts differ from seed to seed, and that
/// much trace is what keeps the spread of loss and delay across seeds
/// small.
inline constexpr double kRtScale = 5.0;
inline constexpr double kRtOverload = 2.0;
inline constexpr int kRtWorkers = 2;
inline constexpr size_t kRtBatch = 64;
inline constexpr double kRtCompression = 100.0;
ctrlshed::ExperimentConfig RtWebBase(uint64_t seed, double duration);

/// cluster_ingress: controller + one 2-worker node over loopback, fed a
/// constant 2x overload by the benchmark's own generator process: 304k
/// tuples per wall second, which leaves the node's single ingress thread
/// room to absorb a slow spell of a shared host without falling behind.
/// Compression 50 gives 1000 control periods per 20 s run, enough for a
/// steady p99 of the per-period delay.
inline constexpr double kClusterScale = 8.0;
inline constexpr int kClusterWorkers = 2;
inline constexpr size_t kClusterBatch = 1;
inline constexpr double kClusterCompression = 50.0;
inline constexpr double kClusterOverload = 2.0;
inline constexpr size_t kTuplesPerFrame = 8;
ctrlshed::ExperimentConfig ClusterBase(uint64_t seed, double duration);

/// Ingress ring slots per worker in the threaded workloads: 40 ms of the
/// peak per-worker arrival rate, so a scheduling hiccup of a shared host
/// does not show as ring-overflow loss (the runtimes' default is 4096).
inline constexpr size_t kRingCapacity = 16384;

/// How far, in wall seconds, a shared host may hold back the threads of a
/// wall-clock run. The checks that compare a run's progress at its stop
/// with the wall clock (arrivals delivered, periods recorded, tuples still
/// in flight) allow this much lag, so a stalled host voids no run.
inline constexpr double kStallWallSeconds = 1.0;

/// A workload's plant as the runtimes see it: its experiment config, the
/// number of engines (workers, one arrival stream each), the engine
/// quantum, the time compression of its wall-clock runs, and whether
/// admission is per tuple (the cluster node's path) or batched.
struct Plant {
  ctrlshed::ExperimentConfig base;
  int workers = 1;
  size_t batch = 1;
  double compression = 20.0;
  bool per_tuple_admission = false;
};

/// The plant of `workload` ("sim_fig14", "rt_web" or "cluster_ingress")
/// over `duration` trace seconds. The sim has no wall clock; its threaded
/// probes run at compression 20.
Plant PlantOf(const std::string& workload, uint64_t seed, double duration);

/// The per-period control signals the invariant check reads.
std::vector<PeriodSignals> SignalsOf(const ctrlshed::Recorder& recorder);

/// Largest virtual queue recorded in any period (entry equivalents).
double MaxQueue(const ctrlshed::Recorder& recorder);

// --- Runs -------------------------------------------------------------------

RunResult RunSimFig14(const RunArgs& args);
RunResult RunRtWeb(const RunArgs& args);
RunResult RunClusterIngress(const RunArgs& args);
/// The traced, single-threaded replay of `args.workload`'s inputs through
/// each layer's public calls; reports the per-layer metrics.
RunResult RunTracedReplay(const RunArgs& args);

/// Generator-process entry point (see generator.cc). Returns the exit code.
int GeneratorMain(int argc, char** argv);

/// One set-up measurement of each workload, as its setup_s defines it.
double SimSetupOnce(const RunArgs& args);
double RtSetupOnce(const RunArgs& args);
double ClusterSetupOnce(const RunArgs& args);

/// `n` set-up measurements of args.workload, each in a fresh process of this
/// executable (`--setup-probe`), so every sample starts from the cold
/// allocator, page tables and caches a real first run starts from. Samples
/// taken again inside one process land in a warm allocator state that
/// depends on what ran before and differ run to run by up to 3x.
std::vector<double> FreshSetupSamples(const RunArgs& args, int n);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
