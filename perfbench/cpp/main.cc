// perfbench — the end-to-end shedding benchmark.
//
//   perfbench --workload sim_fig14|rt_web|cluster_ingress --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 runs the workload against the public runtime entry points
// (RunExperiment, RunRtExperiment, RunClusterController + RunClusterNode)
// with tracing off and prints the end-to-end metrics. --trace 1 runs the
// traced single-threaded replay of the same generated inputs and prints
// the per-layer metrics; its spans land in DIR/<workload>.trace.json.
// Every line but the last is for people; the last line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every output check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "bench.h"

namespace perfbench {

using ctrlshed::ExperimentConfig;

ExperimentConfig SimFig14Config(uint64_t seed) {
  ExperimentConfig c;
  c.method = ctrlshed::Method::kCtrl;
  c.workload = ctrlshed::WorkloadKind::kWeb;
  c.web.mean_rate *= kSimScale;
  c.capacity_rate = kPaperCapacity * kSimScale;
  c.vary_cost = true;
  c.use_queue_shedder = true;
  c.cost_aware_shedding = true;
  c.estimation_noise = 0.1;
  c.period = 1.0;
  c.target_delay = 2.0;
  c.duration = 400.0;
  c.seed = seed;
  return c;
}

ExperimentConfig RtWebBase(uint64_t seed, double duration) {
  ExperimentConfig c;
  c.method = ctrlshed::Method::kCtrl;
  c.workload = ctrlshed::WorkloadKind::kWeb;
  // Each of the W workers is one paper-sized engine scaled by S, and the
  // web trace is scaled by S*W, so each worker sees kRtOverload times the
  // paper's web load.
  c.web.mean_rate *= kRtOverload * kRtScale * kRtWorkers;
  c.capacity_rate = kPaperCapacity * kRtScale;
  c.period = 1.0;
  c.target_delay = 2.0;
  c.duration = duration;
  c.seed = seed;
  return c;
}

ExperimentConfig ClusterBase(uint64_t seed, double duration) {
  ExperimentConfig c;
  c.method = ctrlshed::Method::kCtrl;
  c.workload = ctrlshed::WorkloadKind::kConstant;
  c.constant_rate =
      kClusterOverload * kPaperCapacity * kClusterScale * kClusterWorkers;
  c.capacity_rate = kPaperCapacity * kClusterScale;
  c.period = 1.0;
  c.target_delay = 2.0;
  c.duration = duration;
  c.seed = seed;
  return c;
}

Plant PlantOf(const std::string& workload, uint64_t seed, double duration) {
  Plant p;
  if (workload == "sim_fig14") {
    p.base = SimFig14Config(seed);
    p.base.duration = duration;
  } else if (workload == "rt_web") {
    p.base = RtWebBase(seed, duration);
    p.workers = kRtWorkers;
    p.batch = kRtBatch;
    p.compression = kRtCompression;
  } else {
    p.base = ClusterBase(seed, duration);
    p.workers = kClusterWorkers;
    p.batch = kClusterBatch;
    p.compression = kClusterCompression;
    p.per_tuple_admission = true;
  }
  return p;
}

std::vector<PeriodSignals> SignalsOf(const ctrlshed::Recorder& recorder) {
  std::vector<PeriodSignals> out;
  out.reserve(recorder.rows().size());
  for (const ctrlshed::PeriodRecord& row : recorder.rows()) {
    out.push_back(
        PeriodSignals{row.m.k, row.m.queue, row.alpha, row.m.y_hat, row.v});
  }
  return out;
}

double MaxQueue(const ctrlshed::Recorder& recorder) {
  double q = 0.0;
  for (const ctrlshed::PeriodRecord& row : recorder.rows()) {
    if (row.m.queue > q) q = row.m.queue;
  }
  return q;
}

std::vector<double> FreshSetupSamples(const RunArgs& args, int n) {
  std::vector<double> out;
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) return out;
  self[len] = '\0';
  char opts[160];
  std::snprintf(opts, sizeof(opts), " --workload %s --seed %llu --seconds %.17g",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds);
  const std::string cmd = std::string("'") + self + "' --setup-probe" + opts;
  for (int i = 0; i < n; ++i) {
    FILE* p = popen(cmd.c_str(), "r");
    if (p == nullptr) break;
    double v = 0.0;
    const bool ok = std::fscanf(p, "%lf", &v) == 1;
    if (pclose(p) == 0 && ok) out.push_back(v);
  }
  return out;
}

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sim_fig14|rt_web|cluster_ingress --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               msg);
  return 2;
}

void PrintResult(RunResult* r) {
  for (const std::string& note : r->notes) std::printf("%s\n", note.c_str());
  for (Metric& m : r->metrics) {
    if (!std::isfinite(m.value)) {
      r->Fail("metric " + m.name + " is not finite");
      std::printf("CHECK FAILED: metric %s is not finite\n", m.name.c_str());
      m.value = 0.0;
    }
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r->correct ? "true" : "false",
              static_cast<unsigned long long>(r->attempted),
              static_cast<unsigned long long>(r->failed));
  for (size_t i = 0; i < r->metrics.size(); ++i) {
    const Metric& m = r->metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  // Failed checks go to standard error too, where a harness that keeps
  // only the tail of stderr still sees why the run failed.
  for (const std::string& note : r->notes) {
    if (note.rfind("CHECK FAILED", 0) == 0) {
      std::fprintf(stderr, "perfbench: %s\n", note.c_str());
    }
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc > 1 && std::strcmp(argv[1], "--generator") == 0) {
    return GeneratorMain(argc, argv);
  }
  const bool setup_probe = argc > 1 && std::strcmp(argv[1], "--setup-probe") == 0;
  RunArgs args;
  for (int i = setup_probe ? 2 : 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + key).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds >= 1.0 && args.seconds <= 120.0)) {
        return Usage("--seconds takes a number in [1, 120]");
      }
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown option " + key).c_str());
    }
  }
  if (args.workload != "sim_fig14" && args.workload != "rt_web" &&
      args.workload != "cluster_ingress") {
    return Usage("unknown workload");
  }

  if (setup_probe) {
    const double s = args.workload == "sim_fig14" ? SimSetupOnce(args)
                     : args.workload == "rt_web"  ? RtSetupOnce(args)
                                                  : ClusterSetupOnce(args);
    std::printf("%.17g\n", s);
    return s > 0.0 ? 0 : 1;
  }

  RunResult result;
  if (args.trace) {
    result = RunTracedReplay(args);
  } else if (args.workload == "sim_fig14") {
    result = RunSimFig14(args);
  } else if (args.workload == "rt_web") {
    result = RunRtWeb(args);
  } else {
    result = RunClusterIngress(args);
  }
  if (result.attempted == 0) result.Fail("no tuple was generated");
  PrintResult(&result);
  return result.correct ? 0 : 1;
}
