// The traced run: a single-threaded replay of a workload's generated
// inputs through each layer's public calls, in the order the runtimes make
// them, on virtual time. Every workload's inputs go through every layer,
// with that workload's plant (engine quantum, workers, shedder, admission
// path), so every per-layer metric is measured on every workload.
//
// Per pump step (the rt pacing, 500 us of wall time, in trace time):
//   net       FrameDecoder::Feed/Next over the pre-encoded byte stream in
//             16 KiB reads, DecodeTupleBatch per frame
//   shedding  Shedder::AdmitBatch (rt admission)
//   cluster   per-tuple Shedder::Admit under a mutex (node admission); the
//             path the plant does not use runs on a shadow shedder with
//             the same seed, so both costs are measured on the same tuples
//   rt        RtEngine::OfferBatch + RtEngine::Pump on an un-started engine
//   sim       Simulation::Schedule + Run driving a twin Engine, whose
//   engine    InjectBatch and AdvanceTo are timed inside the dispatch
//   metrics   QosAccumulator::OnDeparture for the step's departures
// Per control period:
//   control   RtMonitor::Sample, LoadController::DesiredRate, per-shard
//             ActuationPlanner::BuildPlan + Shedder::ApplyPlan (which runs
//             Engine::ShedFromQueues under the queue shedder)
//   metrics   Recorder::Record
//   cluster   NodeAgent::Tick + EncodeStatsReportFrame, DecodeStatsReport +
//             ClusterControlLoop::OnReport/Tick/OnAck, DecodeActuation +
//             NodeAgent::Apply — a shadow control plane fed the same
//             samples, actuating shadow shedders
// The twin engine is the plant of record (the monitor samples it and the
// queue shedder acts on it); the un-started RtEngine is fed the same
// admitted tuples at the same times and must depart the same tuples when
// no queue shedding runs.
//
// The replay runs untraced and traced, twice each in A-B-B-A order; the
// difference of the median wall times is telemetry.trace_overhead_pct. The waits the replay cannot show come
// from two short threaded probes with tracing off: RunRtExperiment of the
// plant (pump intervals, tick lateness, ring drops) and the plant as a
// fed cluster (generator lateness).

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/cluster_control_loop.h"
#include "cluster/node_agent.h"
#include "cluster/wire.h"
#include "cluster_run.h"
#include "control/actuation_plan.h"
#include "control/ctrl_controller.h"
#include "control/period_math.h"
#include "engine/engine.h"
#include "engine/query_network.h"
#include "inputs.h"
#include "metrics/qos_metrics.h"
#include "net/frame.h"
#include "proc_stats.h"
#include "rt/rt_engine.h"
#include "rt/rt_monitor.h"
#include "rt/rt_runtime.h"
#include "runner/networks.h"
#include "shedding/entry_shedder.h"
#include "shedding/queue_shedder.h"
#include "sim/simulation.h"
#include "spans.h"
#include "workload/traces.h"

namespace perfbench {

namespace {

using namespace ctrlshed;

constexpr double kPacingWall = 500e-6;   // the rt runtimes' pump pacing
constexpr size_t kRecvChunk = 16384;     // the frame server's read size
constexpr double kRtProbeWall = 1.5;     // wall seconds per threaded probe
constexpr double kClusterProbeWall = 2.0;
constexpr int kTwinRounds = 2;

// Trace seconds replayed per 20 s of --seconds: about 1.2M-1.5M tuples.
double ReplayDuration(const std::string& workload, double seconds) {
  const double base = workload == "sim_fig14" ? 200.0
                      : workload == "rt_web"  ? 300.0
                                              : 200.0;
  return std::max(10.0, std::floor(base * seconds / 20.0));
}

// Times the twin engine's advancement inside Simulation::Run.
class TimedProcess : public Process {
 public:
  TimedProcess(Engine* engine, SpanRecorder* rec) : engine_(engine), rec_(rec) {}
  void AdvanceTo(SimTime t) override {
    ScopedSpan span(rec_, "engine.advance");
    engine_->AdvanceTo(t);
  }

 private:
  Engine* engine_;
  SpanRecorder* rec_;
};

struct Shard {
  std::unique_ptr<QueryNetwork> rt_net, eng_net;
  std::unique_ptr<RtEngine> rt;
  std::unique_ptr<Engine> eng;
  std::unique_ptr<TimedProcess> proc;
  std::unique_ptr<Shedder> primary;  ///< Decides admission.
  std::unique_ptr<Shedder> shadow;   ///< Runs the other admission path.
  std::unique_ptr<Shedder> cluster_shadow;  ///< Actuated by the NodeAgent.
  std::vector<Tuple> due, admitted;
  std::vector<uint8_t> mask;
  uint64_t offered = 0, entry_shed = 0, rt_departed = 0;
  double delay_sum = 0.0;
  uint64_t delay_count = 0;
};

struct ReplayTotals {
  uint64_t generated = 0, arrival_events = 0;
  uint64_t frames = 0, bytes = 0, decoded = 0, rejected_frames = 0;
  uint64_t offered = 0, admitted = 0, entry_shed = 0, departed = 0;
  uint64_t queue_shed = 0, in_queues = 0, invocations = 0, chunks = 0;
  uint64_t sim_events = 0, departures = 0, periods = 0, applies = 0;
  uint64_t ring_dropped = 0;
  double wall_s = 0.0;
  std::vector<PeriodSignals> signals;
  std::vector<std::string> errors;
};

bool Unframe(const std::string& bytes, Frame* out) {
  FrameDecoder d;
  d.Feed(bytes.data(), bytes.size());
  return d.Next(out) == FrameDecoder::Status::kFrame;
}

ReplayTotals Replay(const Plant& plant, double duration, SpanRecorder* rec) {
  ReplayTotals tot;
  const double t_start = WallSeconds();
  const ExperimentConfig& base = plant.base;
  const int workers = plant.workers;

  // --- Workload: arrivals, then the frames the generator would send.
  FrameStream frames;
  {
    std::vector<Tuple> tuples;
    {
      ScopedSpan span(rec, "workload.generate");
      ArrivalStreams arrivals(base, workers,
                              [&tuples](const Tuple& t) { tuples.push_back(t); });
      arrivals.RunUntil(duration);
      tot.arrival_events = arrivals.events();
    }
    ScopedSpan span(rec, "net.encode");
    FrameSlicer slicer(workers, kTuplesPerFrame, &frames);
    for (const Tuple& t : tuples) slicer.Add(t);
  }
  tot.generated = frames.tuples;

  // --- The plant.
  const double nominal = base.headroom_true / base.capacity_rate;
  RateTrace cost_trace;
  CostMultiplierFn multiplier;
  if (base.vary_cost) {
    cost_trace = MakeCostTrace(base.duration, base.cost_params, base.seed + 1);
    const double cost_base = base.cost_params.base_ms;
    multiplier = [&cost_trace, cost_base](SimTime t) {
      return cost_trace.At(t) / cost_base;
    };
  }
  RtClock clock(plant.compression);  // never started: Pump gets the time
  Simulation sim;
  std::vector<Departure> departed_buf;
  std::vector<Shard> shards(static_cast<size_t>(workers));
  std::vector<Shedder*> cluster_shedders;
  for (int i = 0; i < workers; ++i) {
    Shard& s = shards[static_cast<size_t>(i)];
    const uint64_t shed_seed = base.seed + 2 + 7919 * static_cast<uint64_t>(i);
    s.rt_net = std::make_unique<QueryNetwork>();
    BuildIdentificationNetwork(s.rt_net.get(), nominal);
    RtEngineOptions eo;
    eo.headroom = base.headroom_true;
    eo.batch = plant.batch;
    eo.ring_capacity = kRingCapacity;
    eo.cost_multiplier = multiplier;
    eo.queue_shed_seed = base.seed + 6 + 7919 * static_cast<uint64_t>(i);
    s.rt = std::make_unique<RtEngine>(s.rt_net.get(), &clock, 1, eo);
    s.rt->SetDepartureCallback([&s](const Departure&) { ++s.rt_departed; });
    s.eng_net = std::make_unique<QueryNetwork>();
    BuildIdentificationNetwork(s.eng_net.get(), nominal);
    s.eng = std::make_unique<Engine>(s.eng_net.get(), base.headroom_true);
    s.eng->scheduler().set_quantum(plant.batch);
    if (multiplier) s.eng->SetCostMultiplier(multiplier);
    s.eng->SetDepartureCallback([&s, &departed_buf](const Departure& d) {
      s.delay_sum += d.depart_time - d.arrival_time;
      ++s.delay_count;
      departed_buf.push_back(d);
    });
    s.proc = std::make_unique<TimedProcess>(s.eng.get(), rec);
    sim.AttachProcess(s.proc.get());
    if (base.use_queue_shedder) {
      s.primary = std::make_unique<QueueShedder>(s.eng.get(), shed_seed,
                                                 base.cost_aware_shedding);
    } else {
      s.primary = std::make_unique<EntryShedder>(shed_seed);
    }
    s.shadow = std::make_unique<EntryShedder>(shed_seed);
    s.cluster_shadow = std::make_unique<EntryShedder>(shed_seed);
    cluster_shedders.push_back(s.cluster_shadow.get());
  }

  CtrlOptions co;
  co.gains = base.gains;
  co.headroom = workers * base.headroom_est;
  co.feedback = base.ctrl_feedback;
  co.anti_windup = base.anti_windup;
  CtrlController controller(co);
  RtMonitorOptions mo;
  mo.period = base.period;
  mo.headroom = base.headroom_est;
  mo.cost_ewma = base.cost_ewma;
  mo.adapt_headroom = base.adapt_headroom;
  RtMonitor monitor(nominal, workers, mo);
  ActuationPlannerOptions po;
  po.nominal_entry_cost = nominal;
  po.allow_in_network = base.use_queue_shedder;
  po.cost_aware = base.cost_aware_shedding;
  const ActuationPlanner planner(po);
  QosAccumulator qos(base.target_delay);
  Recorder recorder;

  NodeAgentOptions ao;
  ao.target_delay = base.target_delay;
  ao.monitor = mo;
  NodeAgent agent(nominal, cluster_shedders, ao);
  ClusterControlLoopOptions lo;
  lo.nominal_entry_cost = nominal;
  lo.target_delay = base.target_delay;
  lo.monitor.period = base.period;
  lo.monitor.cost_ewma = base.cost_ewma;
  lo.monitor.adapt_headroom = base.adapt_headroom;
  lo.ctrl = co;
  lo.queue_shed = base.use_queue_shedder;
  lo.cost_aware = base.cost_aware_shedding;
  ClusterControlLoop ctl(lo);
  ctl.OnHello(agent.Hello(), 0.0);

  // --- The replay.
  FrameDecoder decoder;
  std::mutex plant_mu;  // node_runner's admission lock, uncontended here
  Frame frame;
  TupleBatch batch;
  std::vector<RtSample> samples(static_cast<size_t>(workers));
  const double step = kPacingWall * plant.compression;
  const int periods = static_cast<int>(std::floor(duration / base.period + 1e-9));
  size_t next_frame = 0;
  double prev = 0.0;
  for (int k = 1; k <= periods; ++k) {
    const double boundary = k * base.period;
    while (prev < boundary) {
      const double now = std::min(prev + step, boundary);
      size_t end_frame = next_frame;
      while (end_frame < frames.frames.size() &&
             frames.frames[end_frame].due <= now) {
        ++end_frame;
      }
      if (end_frame > next_frame) {
        ScopedSpan span(rec, "net.decode");
        const size_t begin = frames.frames[next_frame].offset;
        const size_t end = frames.frames[end_frame - 1].offset +
                           frames.frames[end_frame - 1].bytes;
        for (size_t off = begin; off < end; off += kRecvChunk) {
          decoder.Feed(frames.bytes.data() + off, std::min(kRecvChunk, end - off));
          for (;;) {
            const FrameDecoder::Status st = decoder.Next(&frame);
            if (st == FrameDecoder::Status::kNeedMore) break;
            if (st == FrameDecoder::Status::kCorrupt) {
              tot.errors.push_back("frame stream corrupt");
              break;
            }
            ++tot.frames;
            tot.bytes += kFrameHeaderBytes + frame.payload.size();
            bool ok = false;
            {
              ScopedSpan decode(rec, "net.tuple_decode");
              ok = frame.type == FrameType::kTupleBatch &&
                   DecodeTupleBatch(frame.payload, &batch);
            }
            if (!ok) {
              ++tot.rejected_frames;
              continue;
            }
            Shard& s = shards[batch.source % static_cast<uint32_t>(workers)];
            for (Tuple t : batch.tuples) {
              t.source = 0;  // each shard engine has one local source
              s.due.push_back(t);
            }
            tot.decoded += batch.tuples.size();
          }
        }
        next_frame = end_frame;
      }

      for (Shard& s : shards) {
        const size_t n = s.due.size();
        s.admitted.clear();
        if (n > 0) {
          s.offered += n;
          s.mask.resize(n);
          Shedder* batch_path = plant.per_tuple_admission ? s.shadow.get()
                                                          : s.primary.get();
          Shedder* tuple_path = plant.per_tuple_admission ? s.primary.get()
                                                          : s.shadow.get();
          {
            ScopedSpan span(rec, "shedding.admit_batch");
            batch_path->AdmitBatch(s.due.data(), n, s.mask.data());
          }
          {
            ScopedSpan span(rec, "cluster.admit");
            std::lock_guard<std::mutex> lock(plant_mu);
            for (size_t j = 0; j < n; ++j) {
              const bool in = tuple_path->Admit(s.due[j]);
              if (plant.per_tuple_admission && in) s.admitted.push_back(s.due[j]);
            }
          }
          if (!plant.per_tuple_admission) {
            for (size_t j = 0; j < n; ++j) {
              if (s.mask[j]) s.admitted.push_back(s.due[j]);
            }
          }
          s.entry_shed += n - s.admitted.size();
          tot.admitted += s.admitted.size();
          {
            ScopedSpan span(rec, "rt.offer");
            s.rt->OfferBatch(s.admitted.data(), s.admitted.size());
          }
          s.due.clear();
        }
        ScopedSpan span(rec, "rt.pump");
        s.rt->Pump(now);
      }
      {
        ScopedSpan span(rec, "sim.dispatch");
        for (Shard& s : shards) {
          if (s.admitted.empty()) continue;
          ++tot.sim_events;
          sim.Schedule(sim.now(), [&s, rec] {
            ScopedSpan inject(rec, "engine.inject");
            s.eng->InjectBatch(s.admitted.data(), s.admitted.size());
          });
        }
        sim.Run(now);
      }
      {
        ScopedSpan span(rec, "metrics.departure");
        for (const Departure& d : departed_buf) qos.OnDeparture(d);
      }
      tot.departures += departed_buf.size();
      departed_buf.clear();
      prev = now;
    }

    // Period boundary: sample the twin engines, run the control law.
    for (size_t i = 0; i < shards.size(); ++i) {
      const Shard& s = shards[i];
      const EngineCounters& c = s.eng->counters();
      RtSample& x = samples[i];
      x.now = boundary;
      x.offered = s.offered;
      x.entry_shed = s.entry_shed;
      x.ring_dropped = s.rt->stats()->ring_dropped.load();
      x.admitted = c.admitted;
      x.departed = c.departed;
      x.queue_shed = c.shed_lineages;
      x.queue_shed_load = c.shed_base_load;
      x.busy_seconds = c.busy_seconds;
      x.drained_base_load = c.drained_base_load;
      x.queued_tuples = s.eng->QueuedTuples();
      x.outstanding_base_load = s.eng->OutstandingBaseLoad();
      x.delay_sum = s.delay_sum;
      x.delay_count = s.delay_count;
    }
    PeriodMeasurement m;
    {
      ScopedSpan span(rec, "control.sample");
      m = monitor.Sample(samples, base.target_delay);
    }
    double v = 0.0;
    {
      ScopedSpan span(rec, "control.decide");
      v = controller.DesiredRate(m);
    }
    double alpha = 0.0;
    {
      ScopedSpan span(rec, "control.plan");
      const std::vector<double> shares = ProportionalShares(monitor.shard_fin());
      double applied = 0.0;
      for (size_t i = 0; i < shards.size(); ++i) {
        Shard& s = shards[i];
        PeriodMeasurement mi = m;
        mi.fin = monitor.shard_fin()[i];
        mi.fin_forecast = m.fin_forecast * shares[i];
        mi.admitted = m.admitted * shares[i];
        mi.queue = monitor.shard_queues()[i];
        const ActuationPlan plan = planner.BuildPlan(v * shares[i], mi);
        {
          ScopedSpan shed(rec, "shedding.queue_shed");
          applied += s.primary->ApplyPlan(plan, mi);
        }
        s.shadow->ApplyPlan(plan, mi);
        alpha += shares[i] * s.primary->drop_probability();
      }
      controller.NotifyActuation(applied);
    }
    {
      ScopedSpan span(rec, "metrics.record");
      PeriodRecord row;
      row.m = m;
      row.v = v;
      row.alpha = alpha;
      recorder.Record(std::move(row));
    }
    tot.signals.push_back(PeriodSignals{m.k, m.queue, alpha, m.y_hat, v});

    // The shadow cluster control plane, over the wire formats.
    std::string report_frame;
    {
      ScopedSpan span(rec, "cluster.node_tick");
      report_frame = EncodeStatsReportFrame(agent.Tick(samples));
    }
    std::vector<std::string> actuations;
    {
      ScopedSpan span(rec, "cluster.ctrl_tick");
      NodeStatsReport r;
      if (!Unframe(report_frame, &frame) || !DecodeStatsReport(frame.payload, &r)) {
        tot.errors.push_back("stats report did not decode");
      }
      ctl.OnReport(r, boundary);
      for (const NodeCommand& cmd : ctl.Tick(boundary)) {
        actuations.push_back(EncodeActuationFrame(cmd.act));
      }
    }
    for (const std::string& a : actuations) {
      std::string ack_frame;
      {
        ScopedSpan span(rec, "cluster.apply");
        ClusterActuation act;
        if (!Unframe(a, &frame) || !DecodeActuation(frame.payload, &act)) {
          tot.errors.push_back("actuation did not decode");
        }
        ack_frame = EncodeAckFrame(agent.Apply(act));
        ++tot.applies;
      }
      ScopedSpan span(rec, "cluster.ctrl_tick");
      ActuationAck ack;
      if (!Unframe(ack_frame, &frame) || !DecodeAck(frame.payload, &ack)) {
        tot.errors.push_back("ack did not decode");
      }
      ctl.OnAck(ack);
    }
    ++tot.periods;
  }

  for (Shard& s : shards) {
    const EngineCounters& c = s.eng->counters();
    const EngineCounters& rc = s.rt->counters();
    tot.offered += s.offered;
    tot.entry_shed += s.entry_shed;
    tot.departed += c.departed;
    tot.queue_shed += c.shed_lineages;
    tot.in_queues += s.eng->QueuedTuples();
    tot.invocations += c.invocations;
    tot.chunks += s.eng->chunk_pool().allocated();
    tot.ring_dropped += s.rt->stats()->ring_dropped.load();
    if (c.admitted != s.offered - s.entry_shed) {
      tot.errors.push_back("engine admitted " + std::to_string(c.admitted) +
                           " of " + std::to_string(s.offered - s.entry_shed));
    }
    if (!base.use_queue_shedder &&
        (rc.admitted != c.admitted || s.rt_departed != c.departed)) {
      tot.errors.push_back("rt pump and twin engine diverged: departed " +
                           std::to_string(s.rt_departed) + " vs " +
                           std::to_string(c.departed));
    }
  }
  if (tot.decoded != tot.generated || tot.rejected_frames != 0) {
    tot.errors.push_back("decoded " + std::to_string(tot.decoded) + " of " +
                         std::to_string(tot.generated) + " tuples");
  }
  if (tot.departures != tot.departed) {
    tot.errors.push_back("metrics saw " + std::to_string(tot.departures) +
                         " of " + std::to_string(tot.departed) + " departures");
  }
  tot.wall_s = WallSeconds() - t_start;
  return tot;
}

double Per(double total, uint64_t n, double scale) {
  return n == 0 ? 0.0 : scale * total / static_cast<double>(n);
}

}  // namespace

RunResult RunTracedReplay(const RunArgs& args) {
  RunResult out;
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() >= 3) RestrictToCpus({cpus[2]});
  const double duration = ReplayDuration(args.workload, args.seconds);
  const Plant plant = PlantOf(args.workload, args.seed, duration);

  // Untraced and traced twins in A-B-B-A order, so warm-up and drift fall
  // on both sides; each side reports its median wall time.
  std::vector<double> plain_s, traced_s;
  ReplayTotals plain, traced;
  SpanRecorder rec;
  for (int i = 0; i < kTwinRounds; ++i) {
    const bool traced_first = i % 2 == 1;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == traced_first) {
        SpanRecorder round;
        traced = Replay(plant, duration, &round);
        traced_s.push_back(traced.wall_s);
        rec = std::move(round);  // the last traced round's spans are kept
      } else {
        plain = Replay(plant, duration, nullptr);
        plain_s.push_back(plain.wall_s);
      }
    }
  }
  for (const std::string& e : traced.errors) out.Fail("replay: " + e);
  if (plain.departed != traced.departed || plain.offered != traced.offered ||
      plain.queue_shed != traced.queue_shed) {
    out.Fail("determinism: the untraced and traced replays differ");
  }
  TupleAccounting acc;
  acc.generated = traced.generated;
  acc.offered = traced.offered;
  acc.never_offered = traced.generated - std::min(traced.generated, traced.offered);
  acc.departed = traced.departed;
  acc.entry_shed = traced.entry_shed;
  acc.ring_dropped = traced.ring_dropped;
  acc.queue_shed = traced.queue_shed;
  acc.in_flight_bound = traced.in_queues;  // one queued tuple per lineage
  out.Check(CheckConservation(acc), "replay tuple conservation");
  out.Check(CheckPeriodInvariants(traced.signals), "replay loop invariants");

  // Threaded probes with tracing off, for the waits.
  RtRunConfig rc;
  rc.base = PlantOf(args.workload, args.seed, kRtProbeWall * plant.compression).base;
  rc.base.estimation_noise = 0.0;  // a sim-only knob
  rc.time_compression = plant.compression;
  rc.batch = plant.batch;
  rc.workers = plant.workers;
  rc.ring_capacity = kRingCapacity;
  if (cpus.size() >= 4) {
    rc.pin_cpus = std::to_string(cpus[0]) + "," + std::to_string(cpus[1]);
  }
  const std::string rc_error = RtConfigError(rc);
  RtRunResult rt_probe;
  if (rc_error.empty()) {
    rt_probe = RunRtExperiment(rc);
  } else {
    out.Fail("rt probe config: " + rc_error);
  }
  const ClusterFed fed =
      RunClusterFed(args.workload, args.seed,
                    kClusterProbeWall * plant.compression);
  if (!fed.error.empty()) out.Fail("cluster probe: " + fed.error);

  // Spans out: the Chrome trace plus a per-layer summary.
  mkdir(args.out_dir.c_str(), 0755);
  const std::string stem = args.out_dir + "/" + args.workload;
  if (!rec.WriteChromeTrace(stem + ".trace.json")) {
    out.Fail("cannot write " + stem + ".trace.json");
  }
  const std::map<std::string, SpanRecorder::Totals> t = rec.Summarize();
  auto total = [&t](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total_s;
  };
  auto self = [&t](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.self_s;
  };
  const uint64_t decoded = traced.decoded, offered = traced.offered;
  const uint64_t admitted = traced.admitted, periods = traced.periods;

  out.attempted = traced.generated;
  out.failed = FailedTuples(acc);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "replay of %s: %.0f trace s, %llu tuples, %llu periods; "
                "untraced %.3f s, traced %.3f s, %zu spans in %s.trace.json",
                args.workload.c_str(), duration,
                static_cast<unsigned long long>(traced.generated),
                static_cast<unsigned long long>(periods), plain.wall_s,
                traced.wall_s, rec.spans().size(), stem.c_str());
  out.notes.push_back(buf);

  out.Add("net.frame_decode_ns_per_tuple", Per(self("net.decode"), decoded, 1e9), "ns");
  out.Add("net.tuple_decode_ns_per_tuple", Per(total("net.tuple_decode"), decoded, 1e9), "ns");
  out.Add("net.bytes_per_tuple", Per(static_cast<double>(traced.bytes), decoded, 1.0), "bytes");
  out.Add("net.tuples_per_frame", Per(static_cast<double>(decoded), traced.frames, 1.0), "tuples");
  out.Add("net.rejected_frames", static_cast<double>(traced.rejected_frames), "count");
  out.Add("cluster.ingress_admit_ns_per_tuple",
          Per(total("cluster.admit") + total("rt.offer"), offered, 1e9), "ns");
  out.Add("cluster.node_tick_us", Per(total("cluster.node_tick"), periods, 1e6), "us");
  out.Add("cluster.ctrl_tick_us", Per(total("cluster.ctrl_tick"), periods, 1e6), "us");
  out.Add("cluster.apply_us", Per(total("cluster.apply"), traced.applies, 1e6), "us");
  out.Add("shedding.admit_batch_ns_per_tuple",
          Per(total("shedding.admit_batch"), offered, 1e9), "ns");
  out.Add("shedding.admit_ratio", Per(static_cast<double>(admitted), offered, 1.0), "fraction");
  out.Add("shedding.queue_shed_us", Per(total("shedding.queue_shed"), periods, 1e6), "us");
  out.Add("shedding.queue_victims", static_cast<double>(traced.queue_shed), "count");
  out.Add("rt.offer_ns_per_tuple", Per(total("rt.offer"), admitted, 1e9), "ns");
  out.Add("rt.pump_ns_per_tuple", Per(total("rt.pump"), admitted, 1e9), "ns");
  // The mean, not a percentile: the runtime's pump-interval histogram has
  // 8%-wide buckets, and at 0.5 ms pacing its p99 reads the same bucket
  // edge in most runs.
  out.Add("rt.pump_interval_mean_ms", 1e3 * rt_probe.pump_intervals.Mean(), "ms");
  out.Add("rt.ring_dropped", static_cast<double>(rt_probe.ring_dropped), "count");
  out.Add("engine.inject_ns_per_tuple", Per(total("engine.inject"), admitted, 1e9), "ns");
  out.Add("engine.advance_ns_per_tuple", Per(total("engine.advance"), admitted, 1e9), "ns");
  out.Add("engine.invocations_per_tuple",
          Per(static_cast<double>(traced.invocations), admitted, 1.0), "invocations");
  out.Add("engine.chunks_high_water", static_cast<double>(traced.chunks), "chunks");
  out.Add("control.sample_us", Per(total("control.sample"), periods, 1e6), "us");
  out.Add("control.decide_us", Per(total("control.decide"), periods, 1e6), "us");
  out.Add("control.plan_us", Per(total("control.plan"), periods, 1e6), "us");
  out.Add("control.actuation_lateness_p99_ms",
          1e3 * rt_probe.actuation_lateness.Quantile(0.99), "ms");
  out.Add("sim.event_ns", Per(self("sim.dispatch"), traced.sim_events, 1e9), "ns");
  out.Add("metrics.departure_ns", Per(total("metrics.departure"), traced.departures, 1e9), "ns");
  out.Add("metrics.record_us", Per(total("metrics.record"), periods, 1e6), "us");
  out.Add("workload.generate_ns_per_tuple",
          Per(total("workload.generate"), traced.arrival_events, 1e9), "ns");
  out.Add("workload.lateness_p99_ms", fed.gen.lateness_p99_ms, "ms");
  out.Add("telemetry.trace_overhead_pct",
          100.0 * (Median(traced_s) - Median(plain_s)) / Median(plain_s), "%");

  // The per-layer summary next to the trace: every metric, then each
  // span's count, total and self time.
  const std::string summary_path = stem + ".layers.json";
  FILE* f = std::fopen(summary_path.c_str(), "w");
  if (f == nullptr) {
    out.Fail("cannot write " + summary_path);
    return out;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"metrics\": {",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", out.metrics[i].name.c_str(),
                 out.metrics[i].value, out.metrics[i].unit.c_str());
  }
  std::fprintf(f, "},\n\"spans\": {");
  bool first = true;
  for (const auto& [name, tt] : t) {
    std::fprintf(f, "%s\n  \"%s\": {\"count\": %llu, \"total_s\": %.9g, \"self_s\": %.9g}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(tt.count), tt.total_s, tt.self_s);
    first = false;
  }
  std::fprintf(f, "}}\n");
  if (std::fclose(f) != 0) out.Fail("cannot write " + summary_path);
  return out;
}

}  // namespace perfbench
