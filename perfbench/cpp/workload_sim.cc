// sim_fig14: the paper's Section 5 setup in the discrete-event sim, scaled
// by S = 30 — web trace, Fig. 14 cost trace, cost-aware in-network queue
// shedder, estimation noise 0.1, T = 1 s, yd = 2 s, 400 s of trace time.
//
// The run simulates kDistinctSeeds input sets derived from --seed, then
// the first again (it must reproduce the first run's counts exactly), then
// repeats the first until --seconds have passed. Loss and delay pool the
// distinct input sets, which keeps their seed-to-seed spread small.
//
// The speed metrics time the repetitions of the first input set slice by
// slice: a slice ends at every kSliceDepartures-th departure, so a slice
// does the same work in every repetition. The run's time is the sum over
// slices of each slice's fastest repetition. A shared host slows a
// single-threaded run by up to a third for spells of a fraction of a
// second to tens of seconds; the per-slice minimum keeps the quiet moments
// of every repetition, and reads within a few percent where the median of
// whole repetitions swung by 30%.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "proc_stats.h"
#include "runner/networks.h"
#include "workload/traces.h"

namespace perfbench {

namespace {

using ctrlshed::ExperimentConfig;
using ctrlshed::ExperimentResult;

constexpr int kDistinctSeeds = 6;
constexpr uint64_t kSeedStride = 1000003;
// Set-up samples taken after each simulation, so that they spread over the
// whole run: taken back to back, they all caught the host in one state and
// their median moved by a third from run to run.
constexpr int kSetupPerRound = 3;
constexpr uint64_t kSliceDepartures = 4096;

// Counts the seed build reports for seed 42 (offered / departed /
// queue_shed); a difference is printed, not failed, so a change that
// alters the simulation on purpose stays measurable.
constexpr uint64_t kRef42Offered = 2398660;
constexpr uint64_t kRef42Departed = 1374644;
constexpr uint64_t kRef42QueueShed = 2575;

struct Rep {
  ExperimentResult result;
  /// Wall and CPU seconds since the call at the end of each slice; the
  /// last entry is the end of the call.
  std::vector<double> wall, cpu;
};

Rep RunOnce(const ExperimentConfig& base, DelayHistogram* delays) {
  Rep rep;
  ExperimentConfig config = base;
  uint64_t departures = 0;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = WallSeconds();
  config.departure_observer = [&](const ctrlshed::Departure& d) {
    delays->Record(d.depart_time - d.arrival_time);
    if (++departures % kSliceDepartures == 0) {
      rep.wall.push_back(WallSeconds() - t0);
      rep.cpu.push_back(ProcessCpuSeconds() - cpu0);
    }
  };
  rep.result = ctrlshed::RunExperiment(config);
  rep.wall.push_back(WallSeconds() - t0);
  rep.cpu.push_back(ProcessCpuSeconds() - cpu0);
  return rep;
}

// Sum over slices of the fastest repetition's slice time. Every series
// has the same length, because the repetitions are deterministic.
double FastestSliceSum(const std::vector<std::vector<double>>& series) {
  double total = 0.0;
  for (size_t i = 0; i < series.front().size(); ++i) {
    double best = -1.0;
    for (const std::vector<double>& s : series) {
      const double dt = s[i] - (i == 0 ? 0.0 : s[i - 1]);
      if (best < 0.0 || dt < best) best = dt;
    }
    total += best;
  }
  return total;
}

void PinSim() {
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() >= 3) RestrictToCpus({cpus[2]});
}

}  // namespace

// The sim's set-up: build the arrival and cost traces and the network and
// engine, exactly what RunExperiment does before its first event.
double SimSetupOnce(const RunArgs& args) {
  PinSim();
  const ExperimentConfig config = SimFig14Config(args.seed);
  const double t0 = WallSeconds();
  const ctrlshed::RateTrace arrivals = ctrlshed::BuildArrivalTrace(config);
  const ctrlshed::RateTrace cost = ctrlshed::MakeCostTrace(
      config.duration, config.cost_params, config.seed + 1);
  ctrlshed::QueryNetwork net;
  ctrlshed::BuildIdentificationNetwork(
      &net, config.headroom_true / config.capacity_rate);
  ctrlshed::Engine engine(&net, config.headroom_true);
  return WallSeconds() - t0;
}

RunResult RunSimFig14(const RunArgs& args) {
  RunResult out;
  PinSim();

  const double start = WallSeconds();
  std::vector<std::vector<double>> walls, cpus;  // repetitions of seed j = 0
  ctrlshed::QosSummary timed;
  DelayHistogram pooled;
  TupleAccounting total;
  std::vector<double> setup;
  auto probe_setup = [&] {
    for (double x : FreshSetupSamples(args, kSetupPerRound)) setup.push_back(x);
  };
  auto time_sample = [&](const Rep& r) {
    if (!walls.empty() && r.wall.size() != walls.front().size()) {
      out.Fail("determinism: a repetition departed a different count");
      return;
    }
    timed = r.result.summary;
    walls.push_back(r.wall);
    cpus.push_back(r.cpu);
  };

  for (int j = 0; j < kDistinctSeeds; ++j) {
    const ExperimentConfig config =
        SimFig14Config(args.seed + kSeedStride * static_cast<uint64_t>(j));
    DelayHistogram delays;
    const Rep first = RunOnce(config, &delays);
    if (j == 0) time_sample(first);
    const ctrlshed::QosSummary& a = first.result.summary;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "seed %llu: offered %llu departed %llu entry_shed %llu "
                  "queue_shed %llu",
                  static_cast<unsigned long long>(config.seed),
                  static_cast<unsigned long long>(a.offered),
                  static_cast<unsigned long long>(a.departures),
                  static_cast<unsigned long long>(a.entry_shed),
                  static_cast<unsigned long long>(a.queue_shed));
    out.notes.push_back(buf);
    if (j == 0) {
      DelayHistogram again;
      const Rep second = RunOnce(config, &again);
      time_sample(second);
      const ctrlshed::QosSummary& b = second.result.summary;
      if (a.offered != b.offered || a.departures != b.departures ||
          a.queue_shed != b.queue_shed || a.entry_shed != b.entry_shed ||
          delays.count() != again.count()) {
        out.Fail("determinism: seed " + std::to_string(config.seed) +
                 " gave different counts on a second run");
      }
    }
    if (config.seed == 42 &&
        (a.offered != kRef42Offered || a.departures != kRef42Departed ||
         a.queue_shed != kRef42QueueShed)) {
      out.notes.push_back(
          "note: seed 42 counts differ from the seed build's "
          "2398660 / 1374644 / 2575 (offered / departed / queue_shed)");
    }

    TupleAccounting acc;
    acc.generated = a.offered;
    acc.offered = a.offered;
    acc.departed = a.departures;
    acc.entry_shed = a.entry_shed;
    acc.ring_dropped = a.ring_dropped;
    acc.queue_shed = a.queue_shed;
    const ctrlshed::Recorder& rec = first.result.recorder;
    const double last_fin = rec.empty() ? 0.0 : rec.rows().back().m.fin;
    acc.in_flight_bound = static_cast<uint64_t>(
        2.0 * MaxQueue(rec) + 2.0 * last_fin * config.period + 64.0);
    out.Check(CheckConservation(acc), "tuple conservation");
    out.Check(CheckPeriodInvariants(SignalsOf(rec)), "loop invariants");
    if (rec.rows().size() !=
        static_cast<size_t>(config.duration / config.period)) {
      out.Fail("recorder holds " + std::to_string(rec.rows().size()) +
               " periods");
    }
    if (delays.count() != a.departures || delays.invalid() != 0) {
      out.Fail("departure observer saw " + std::to_string(delays.count()) +
               " valid delays for " + std::to_string(a.departures) +
               " departures");
    }
    pooled.Merge(delays);
    total.generated += acc.generated;
    total.offered += acc.offered;
    total.departed += acc.departed;
    total.entry_shed += acc.entry_shed;
    total.ring_dropped += acc.ring_dropped;
    total.queue_shed += acc.queue_shed;
    probe_setup();
  }
  // Extra repetitions refine the speed metrics only.
  const ExperimentConfig first_config = SimFig14Config(args.seed);
  while (WallSeconds() - start < args.seconds) {
    DelayHistogram scratch;
    time_sample(RunOnce(first_config, &scratch));
    probe_setup();
  }
  if (setup.empty()) out.Fail("no set-up sample");

  out.attempted = total.generated;
  out.failed = FailedTuples(total);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu simulations of %d input sets, %zu timed; failed_ratio %.6g",
                kDistinctSeeds + walls.size() - 1, kDistinctSeeds, walls.size(),
                FailedRatio(total));
  out.notes.push_back(buf);

  out.Add("setup_s", Median(setup), "s");
  const double wall_s = FastestSliceSum(walls);
  const double offered = static_cast<double>(timed.offered);
  out.Add("sim_tuples_per_s", offered / wall_s, "tuples/s");
  out.Add("delivered_tps", static_cast<double>(timed.departures) / wall_s,
          "tuples/s");
  out.Add("cpu_ns_per_tuple", 1e9 * FastestSliceSum(cpus) / offered, "ns");
  out.Add("loss_ratio", LossRatio(total), "fraction");
  out.Add("delay_mean_s", pooled.Mean(), "s");
  out.Add("delay_p99_s", pooled.Quantile(0.99), "s");
  out.Add("rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace perfbench
