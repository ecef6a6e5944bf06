// cluster_ingress: an in-process cluster controller plus one 2-worker node
// (batch 1), fed over one loopback connection by the benchmark's own
// open-loop generator process at a constant 2x overload (304k tuples per
// wall second, see kClusterScale). Loads net framing and decode, per-tuple
// node admission, the node <-> controller wire and the engine's row path.

#include <signal.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "cluster_run.h"
#include "proc_stats.h"

namespace perfbench {

namespace {

using ctrlshed::ClusterControllerConfig;
using ctrlshed::ClusterControllerResult;
using ctrlshed::ClusterNodeConfig;
using ctrlshed::ClusterNodeResult;

constexpr int kSetupProbes = 16;
constexpr double kProbeDuration = 5.0;  // trace seconds per set-up probe
// Periods left out of the delay statistics: the loop's start-up transient
// (the first actuation lands a period late while a 2x overload arrives)
// would otherwise be most of the per-period p99.
constexpr int kWarmupPeriods = 10;
// A run whose generator started its writes later than this share of a
// control period (p99) misplaced its load across periods and is void.
constexpr double kMaxLatenessP99Periods = 0.5;

struct PairRun {
  ClusterControllerResult ctl;
  ClusterNodeResult node;
  double setup_s = 0.0;
  double window_s = 0.0;
  double cpu_s = 0.0;
  bool ready = false;
};

// Runs controller + node of `plant`. `on_node_ready` (may be empty) runs on
// the node's thread once its ingress is bound.
PairRun RunPair(const Plant& plant, const std::string& pin,
                const std::function<void(int)>& on_node_ready) {
  PairRun run;
  std::mutex mu;
  std::condition_variable cv;
  int ctrl_port = -1;
  bool ctrl_done = false;
  double cpu0 = 0.0, ready_at = 0.0;

  ClusterControllerConfig cc;
  cc.base = plant.base;
  cc.time_compression = plant.compression;
  cc.min_nodes = 1;
  cc.on_ready = [&](int port) {
    std::lock_guard<std::mutex> lock(mu);
    ctrl_port = port;
    cv.notify_all();
  };
  const double t0 = WallSeconds();
  std::thread ctl([&] {
    ClusterControllerResult r = ctrlshed::RunClusterController(cc);
    std::lock_guard<std::mutex> lock(mu);
    run.ctl = std::move(r);
    ctrl_done = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ctrl_port >= 0 || ctrl_done; });
  }
  if (ctrl_port >= 0) {
    ClusterNodeConfig nc;
    nc.base = plant.base;
    nc.workers = plant.workers;
    nc.batch = plant.batch;
    nc.time_compression = plant.compression;
    nc.controller_port = ctrl_port;
    nc.pin_cpus = pin;
    nc.ring_capacity = kRingCapacity;
    nc.on_ready = [&](int ingress_port) {
      ready_at = WallSeconds();
      run.setup_s = ready_at - t0;
      run.ready = true;
      cpu0 = ProcessCpuSeconds();
      if (on_node_ready) on_node_ready(ingress_port);
    };
    run.node = ctrlshed::RunClusterNode(nc);
    run.window_s = WallSeconds() - ready_at;
  }
  ctl.join();
  run.cpu_s = ProcessCpuSeconds() - cpu0;
  return run;
}

// The pin_cpus value of the node workers (the first two CPUs), or "" when
// there are fewer than four CPUs.
std::string WorkerPin(const std::vector<int>& cpus) {
  if (cpus.size() < 4) return "";
  return std::to_string(cpus[0]) + "," + std::to_string(cpus[1]);
}

}  // namespace

double ClusterSetupOnce(const RunArgs& args) {
  signal(SIGPIPE, SIG_IGN);
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() >= 4) RestrictToCpus({cpus[2]});
  const PairRun probe = RunPair(PlantOf(args.workload, args.seed, kProbeDuration),
                                WorkerPin(cpus), nullptr);
  return probe.ready ? probe.setup_s : -1.0;
}

ClusterFed RunClusterFed(const std::string& workload, uint64_t seed,
                         double duration) {
  ClusterFed out;
  signal(SIGPIPE, SIG_IGN);
  const std::vector<int> cpus = AllowedCpus();
  const std::string pin = WorkerPin(cpus);
  GeneratorProcess gen;
  if (!gen.Spawn(workload, seed, duration, cpus.size() >= 4 ? cpus[3] : -1,
                 &out.error) ||
      !gen.WaitReady(&out.error)) {
    return out;
  }
  if (cpus.size() >= 4) RestrictToCpus({cpus[2]});

  bool go_ok = true;
  PairRun run = RunPair(PlantOf(workload, seed, duration), pin,
                        [&gen, &go_ok](int port) { go_ok = gen.Go(port); });
  std::string gen_error;
  const bool gen_ok = gen.Finish(&out.gen, &gen_error);
  if (!run.ready || !go_ok) {
    out.error = "cluster did not come up";
    return out;
  }
  if (!gen_ok) out.error = gen_error;
  out.setup_s = run.setup_s;
  out.ctl = std::move(run.ctl);
  out.node = std::move(run.node);
  out.window_s = run.window_s;
  out.cpu_s = run.cpu_s;
  return out;
}

namespace {

double MeanMeasuredDelay(const ctrlshed::Recorder& rec,
                         std::vector<double>* per_period) {
  double sum = 0.0;
  for (const ctrlshed::PeriodRecord& row : rec.rows()) {
    if (!row.m.has_y_measured || row.m.k <= kWarmupPeriods) continue;
    per_period->push_back(row.m.y_measured);
    sum += row.m.y_measured;
  }
  return per_period->empty() ? 0.0 : sum / per_period->size();
}

}  // namespace

RunResult RunClusterIngress(const RunArgs& args) {
  RunResult out;
  const double duration = args.seconds * kClusterCompression;
  // Half the set-up probes run before the measured run and half after, so
  // that they do not all catch the host in one state.
  std::vector<double> setup = FreshSetupSamples(args, kSetupProbes / 2);
  const ClusterFed run = RunClusterFed(args.workload, args.seed, duration);
  if (!run.error.empty()) {
    out.Fail(run.error);
    if (run.setup_s <= 0.0) return out;
  }
  const GeneratorReport& rep = run.gen;
  for (double x : FreshSetupSamples(args, kSetupProbes / 2)) setup.push_back(x);
  setup.push_back(run.setup_s);

  const ClusterNodeResult& node = run.node;
  const ClusterControllerResult& ctl = run.ctl;
  TupleAccounting acc;
  acc.generated = rep.generated;
  acc.offered = node.offered;
  if (node.offered <= rep.generated) {
    acc.never_offered = rep.generated - node.offered;
  } else {
    out.Fail("node offered " + std::to_string(node.offered) +
             " tuples but only " + std::to_string(rep.generated) +
             " were generated");
  }
  acc.departed = node.departed;
  acc.entry_shed = node.entry_shed;
  acc.ring_dropped = node.ring_dropped;
  acc.queue_shed = node.queue_shed;
  const double last_fin =
      ctl.recorder.empty() ? 0.0 : ctl.recorder.rows().back().m.fin;
  acc.in_flight_bound = static_cast<uint64_t>(
      2.0 * MaxQueue(ctl.recorder) + 2.0 * last_fin +
      static_cast<double>(kRingCapacity * kClusterWorkers) +
      ClusterBase(args.seed, duration).constant_rate * kStallWallSeconds *
          kClusterCompression);
  out.Check(CheckConservation(acc), "tuple conservation");
  out.Check(CheckPeriodInvariants(SignalsOf(ctl.recorder)), "loop invariants");
  // Frames the node hung up on before reading are tuples never offered:
  // involuntary loss, counted in `failed`. Only impossible counts fail.
  if (rep.sent_tuples > rep.generated || rep.sent_frames > rep.frames ||
      node.ingress_frames > rep.sent_frames) {
    out.Fail("frame counts: generated " + std::to_string(rep.frames) +
             ", sent " + std::to_string(rep.sent_frames) + ", received " +
             std::to_string(node.ingress_frames));
  }
  if (node.ingress_frames != rep.frames) {
    out.notes.push_back("note: the node read " +
                        std::to_string(node.ingress_frames) + " of " +
                        std::to_string(rep.frames) + " frames");
  }
  const double max_lateness_ms = 1e3 * kMaxLatenessP99Periods *
                                 ClusterBase(args.seed, duration).period /
                                 kClusterCompression;
  if (rep.lateness_p99_ms > max_lateness_ms) {
    out.Fail("void run: generator lateness p99 " +
             std::to_string(rep.lateness_p99_ms) + " ms");
  }
  if (!node.controller_connected || ctl.nodes_seen != 1 || ctl.rejected != 0 ||
      node.control_rejected != 0 || node.corrupt_streams != 0 ||
      ctl.corrupt_streams != 0) {
    out.Fail("control channel unhealthy");
  }
  const double period = ClusterBase(args.seed, duration).period;
  const double lag_periods =
      std::max(3.0, kStallWallSeconds * kClusterCompression / period);
  if (static_cast<double>(ctl.recorder.rows().size()) + lag_periods <
      duration / period) {
    out.Fail("controller recorded only " +
             std::to_string(ctl.recorder.rows().size()) + " periods");
  }

  std::vector<double> per_period;
  const double delay_mean = MeanMeasuredDelay(ctl.recorder, &per_period);

  out.attempted = acc.generated;
  out.failed = FailedTuples(acc);
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "cluster_ingress: generated %llu in %llu frames (prepared in %.2f s), "
      "offered %llu, departed %llu, ring_dropped %llu, rejected frames %llu; "
      "generator lateness p50/p99/max %.4f/%.4f/%.3f ms; failed_ratio %.6g",
      static_cast<unsigned long long>(rep.generated),
      static_cast<unsigned long long>(rep.frames), rep.prepare_s,
      static_cast<unsigned long long>(node.offered),
      static_cast<unsigned long long>(node.departed),
      static_cast<unsigned long long>(node.ring_dropped),
      static_cast<unsigned long long>(node.ingress_rejected),
      rep.lateness_p50_ms, rep.lateness_p99_ms, rep.lateness_max_ms,
      FailedRatio(acc));
  out.notes.push_back(buf);

  const double window = run.window_s;
  out.Add("setup_s", Median(setup), "s");
  out.Add("sim_tuples_per_s", static_cast<double>(node.offered) / window,
          "tuples/s");
  out.Add("delivered_tps", static_cast<double>(node.departed) / window,
          "tuples/s");
  out.Add("cpu_ns_per_tuple",
          1e9 * run.cpu_s / static_cast<double>(node.offered), "ns");
  out.Add("loss_ratio", LossRatio(acc), "fraction");
  out.Add("delay_mean_s", delay_mean, "s");
  out.Add("delay_p99_s", Quantile(per_period, 0.99), "s");
  out.Add("rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace perfbench
