#include "cluster/node_runner.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/node_agent.h"
#include "cluster/wire.h"
#include "common/macros.h"
#include "engine/query_network.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "net/socket_util.h"
#include "rt/cpu_affinity.h"
#include "rt/rt_clock.h"
#include "runner/networks.h"
#include "shedding/entry_shedder.h"
#include "telemetry/fleet_metrics.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracer.h"
#include "workload/traces.h"

namespace ctrlshed {

NodeAgentOptions NodeAgentOptionsFor(const ExperimentConfig& base,
                                     uint32_t node_id) {
  NodeAgentOptions o;
  o.node_id = node_id;
  o.target_delay = base.target_delay;
  o.monitor.period = base.period;
  o.monitor.headroom = base.headroom_est;
  o.monitor.cost_ewma = base.cost_ewma;
  o.monitor.adapt_headroom = base.adapt_headroom;
  return o;
}

ClusterNodeResult RunClusterNode(const ClusterNodeConfig& config) {
  const ExperimentConfig& base = config.base;
  CS_CHECK_MSG(base.capacity_rate > 0.0, "capacity must be positive");
  CS_CHECK_MSG(config.workers >= 1 && config.workers <= 64,
               "workers must be in [1, 64]");
  IgnoreSigPipe();  // a dying peer must never kill the node process

  const int workers = config.workers;
  const double nominal_cost = base.headroom_true / base.capacity_rate;

  std::unique_ptr<Telemetry> telemetry = Telemetry::Open(base.telemetry);
  if (telemetry && !telemetry->dir().empty()) {
    SetFlightDumpPath(telemetry->dir() + "/ctrlshed.flightdump.json");
  }
  if (telemetry) {
    const uint32_t node_id = config.node_id;
    const int n_workers = workers;
    const double period = base.period;
    telemetry->SetStatusSource([node_id, n_workers, period] {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "{\"mode\":\"cluster\",\"cluster\":{\"role\":\"node\","
                    "\"node_id\":%u,\"workers\":%d,\"period\":%g}}",
                    node_id, n_workers, period);
      return std::string(buf);
    });
  }
  Counter* rejected_metric =
      telemetry ? telemetry->metrics()->GetCounter("net.ingress.rejected")
                : nullptr;

  RtClock clock(config.time_compression);

  // The plant: same construction as the sharded rt runtime, with the shard
  // index node-local (each node is its own plant; the cluster-wide view
  // lives in the controller's aggregation).
  // Fig. 14 time-varying cost, sampled on each worker's clock; the trace
  // lookup is read-only and the trace outlives the engines.
  RateTrace cost_trace;
  CostMultiplierFn cost_multiplier;
  if (base.vary_cost) {
    cost_trace = MakeCostTrace(base.duration, base.cost_params, base.seed + 1);
    const double cost_base = base.cost_params.base_ms;
    cost_multiplier = [&cost_trace, cost_base](SimTime t) {
      return cost_trace.At(t) / cost_base;
    };
  }

  std::vector<std::unique_ptr<QueryNetwork>> nets;
  std::vector<std::unique_ptr<RtEngine>> engines;
  std::vector<std::unique_ptr<EntryShedder>> shedders;
  std::vector<Shedder*> shedder_ptrs;
  std::string pin_error;
  const PinPlan pin_plan = ParsePinCpus(config.pin_cpus, &pin_error);
  for (int i = 0; i < workers; ++i) {
    nets.push_back(std::make_unique<QueryNetwork>());
    BuildIdentificationNetwork(nets.back().get(), nominal_cost);
    RtEngineOptions eopts;
    eopts.headroom = base.headroom_true;
    eopts.ring_capacity = config.ring_capacity;
    eopts.cost_mode = config.cost_mode;
    eopts.pacing_wall_seconds = config.pacing_wall_seconds;
    eopts.batch = config.batch;
    eopts.cost_multiplier = cost_multiplier;
    eopts.queue_shed_seed = base.seed + 6 + 7919 * static_cast<uint64_t>(i);
    eopts.telemetry = telemetry.get();
    eopts.shard_index = i;
    eopts.per_shard_pump_metric = workers > 1;
    eopts.pin_cpu = pin_plan.CpuForShard(i);
    engines.push_back(std::make_unique<RtEngine>(
        nets.back().get(), &clock, /*num_sources=*/1, eopts));
    shedders.push_back(std::make_unique<EntryShedder>(
        base.seed + 2 + 7919 * static_cast<uint64_t>(i)));
    shedder_ptrs.push_back(shedders.back().get());
  }

  NodeAgent agent(nominal_cost, shedder_ptrs,
                  NodeAgentOptionsFor(base, config.node_id));

  // One plant mutex serializes the three users of the shedders/agent:
  // ingress admission (serve thread), the period tick (report thread), and
  // remote actuation (control reader thread).
  std::mutex plant_mu;

  // In-network budgets cross into the worker threads through the
  // RtSharedStats plan handshake: budget + policy stored relaxed, then the
  // bumped sequence released; the worker pump acquires the sequence and
  // drains the budget between engine advances. `plan_seq` is guarded by
  // plant_mu (the poster only runs inside agent.Apply).
  uint64_t plan_seq = 0;
  agent.SetBudgetPoster(
      [&engines, &plan_seq](size_t i, const ActuationPlan& plan, uint32_t) {
        engines[i]->stats()->PostPlan(plan, ++plan_seq);
      });

  if (telemetry && telemetry->server() != nullptr) {
    // HealthMonitor is internally locked, so the server thread may read a
    // verdict without plant_mu. Lifetime: the explicit telemetry->Stop()
    // below shuts the server down before `agent` leaves scope (failures
    // abort, never unwind).
    telemetry->server()->SetHealthCallback([&agent] {
      const HealthReport r = agent.Health();
      return std::make_pair(r.HttpStatus(), r.ToJson());
    });
  }

  ClusterNodeResult result;

  // --- Tuple ingress ------------------------------------------------------
  FrameServerOptions sopts;
  sopts.port = config.ingress_port;
  sopts.bind_address = config.bind_address;
  FrameServer ingress(sopts);
  std::vector<Tuple> admitted;  // serve-thread scratch
  ingress.OnFrame([&](uint64_t /*conn_id*/, const Frame& f) {
    TupleBatch batch;
    if (f.type != FrameType::kTupleBatch ||
        !DecodeTupleBatch(f.payload, &batch)) {
      ++result.ingress_rejected;
      if (rejected_metric != nullptr) rejected_metric->Add(1);
      agent.flight()->RecordEvent("decode_reject", "ingress tuple batch",
                                  clock.Now());
      return;
    }
    const int shard = static_cast<int>(batch.source) % workers;
    RtEngine* engine = engines[static_cast<size_t>(shard)].get();
    admitted.clear();
    {
      std::lock_guard<std::mutex> lock(plant_mu);
      for (Tuple t : batch.tuples) {
        t.source = 0;  // each shard engine has a single local source
        if (shedder_ptrs[static_cast<size_t>(shard)]->Admit(t)) {
          admitted.push_back(t);
        }
      }
    }
    RtSharedStats* stats = engine->stats();
    stats->offered.fetch_add(batch.tuples.size(), std::memory_order_relaxed);
    stats->entry_shed.fetch_add(batch.tuples.size() - admitted.size(),
                                std::memory_order_relaxed);
    if (!admitted.empty()) {
      engine->OfferBatch(admitted.data(), admitted.size());
    }
  });

  // --- Control channel ----------------------------------------------------
  // The reader thread owns its own trace buffer, registered lazily on the
  // first frame (registration must happen on the owning thread).
  FrameClient control;
  TraceBuffer* ctl_buf = nullptr;
  bool ctl_buf_init = false;
  control.OnFrame([&](const Frame& f) {
    if (!ctl_buf_init) {
      ctl_buf_init = true;
      if (telemetry) ctl_buf = telemetry->RegisterThread("node.control");
    }
    if (f.type == FrameType::kHelloAck) {
      HelloAck ha;
      if (!DecodeHelloAck(f.payload, &ha)) {
        ++result.control_rejected;
        agent.flight()->RecordEvent("decode_reject", "control hello ack",
                                    clock.Now());
        return;
      }
      // NTP-style midpoint: the controller's clock read sits halfway
      // through the hello/ack round trip. offset = controller - node, the
      // shift trace-merge applies to put this file on the controller's
      // timebase. Only meaningful when both ends were tracing.
      if (ctl_buf != nullptr && ha.ctrl_clock_us != 0 && ha.echo_t0_us != 0) {
        const int64_t t2 = ctl_buf->NowUs();
        const int64_t mid = (static_cast<int64_t>(ha.echo_t0_us) + t2) / 2;
        ctl_buf->Instant("clock_sync", "offset_us",
                         static_cast<int64_t>(ha.ctrl_clock_us) - mid);
      }
      return;
    }
    ClusterActuation act;
    if (f.type != FrameType::kActuation || !DecodeActuation(f.payload, &act)) {
      ++result.control_rejected;
      agent.flight()->RecordEvent("decode_reject", "control actuation",
                                  clock.Now());
      return;
    }
    ActuationAck ack;
    {
      ScopedSpan span(ctl_buf, "cluster.apply", "period",
                      static_cast<int64_t>(act.seq));
      std::lock_guard<std::mutex> lock(plant_mu);
      ack = agent.Apply(act);
    }
    ++result.actuations_applied;
    control.Send(EncodeAckFrame(ack));
  });

  const auto wall_start = std::chrono::steady_clock::now();
  clock.Start();
  for (auto& engine : engines) engine->Start();
  ingress.Start();

  if (config.controller_port > 0) {
    result.controller_connected =
        control.Connect(config.controller_host, config.controller_port,
                        config.connect_timeout_wall);
    if (result.controller_connected) {
      NodeHello hello = agent.Hello();
      // Stamp the node's trace clock so the controller's HelloAck can
      // close the offset estimate; 0 (= not tracing) suppresses the sync.
      if (telemetry && telemetry->tracer() != nullptr) {
        hello.trace_clock_us =
            static_cast<uint64_t>(telemetry->tracer()->NowUs());
      }
      control.Send(EncodeHelloFrame(hello));
    } else {
      std::fprintf(stderr,
                   "ctrlshed node %u: controller %s:%d unreachable; running "
                   "with local shedding only\n",
                   config.node_id, config.controller_host.c_str(),
                   config.controller_port);
    }
  }

  if (config.on_ready) config.on_ready(ingress.port());

  // --- Period loop: sample, report ---------------------------------------
  // Runs on this (main) thread: sleep to each period boundary, snapshot
  // every shard at one clock read, tick the agent, ship the report.
  TraceBuffer* period_buf =
      telemetry ? telemetry->RegisterThread("node.period") : nullptr;
  std::vector<RtSample> samples;
  samples.reserve(static_cast<size_t>(workers));
  const auto stopping = [&config] { return StopRequested(config.stop); };
  for (int64_t k = 1;; ++k) {
    const SimTime boundary = static_cast<double>(k) * base.period;
    if (boundary > base.duration) break;
    SleepUntilWall(clock.WallDeadline(boundary), stopping);
    if (stopping()) break;
    ScopedSpan span(period_buf, "cluster.report");
    const SimTime now = clock.Now();
    samples.clear();
    for (auto& engine : engines) {
      samples.push_back(engine->stats()->Snapshot(now));
    }
    NodeStatsReport report;
    {
      std::lock_guard<std::mutex> lock(plant_mu);
      report = agent.Tick(samples);
    }
    // Tag the span with the last controller period seen — the correlation
    // id trace-merge intersects across processes. 0 means "no actuation
    // yet", which must not fake an overlap with the controller's seq 0.
    if (report.ctrl_seq > 0) {
      span.SetArg("period", static_cast<int64_t>(report.ctrl_seq));
    }
    if (config.piggyback_metrics && telemetry) {
      report.has_metrics = true;
      report.metrics = FlattenSnapshot(telemetry->metrics()->Snapshot());
    }
    if (control.connected()) {
      if (control.Send(EncodeStatsReportFrame(report))) ++result.reports_sent;
    }
  }
  result.interrupted = StopRequested(config.stop);

  // Teardown: ingress first (no new arrivals), then the control channel
  // (no new actuations), then the engine workers.
  ingress.Stop();
  control.Close();
  for (auto& engine : engines) engine->Stop();
  const auto wall_end = std::chrono::steady_clock::now();

  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.ingress_port = ingress.port();
  result.ingress_connections = ingress.connections_accepted();
  result.ingress_frames = ingress.frames_received();
  result.corrupt_streams = ingress.corrupt_streams();
  result.final_alpha = agent.last_alpha();
  result.health = agent.Health();
  for (auto& engine : engines) {
    const RtSharedStats* stats = engine->stats();
    result.offered += stats->offered.load(std::memory_order_relaxed);
    result.entry_shed += stats->entry_shed.load(std::memory_order_relaxed);
    result.ring_dropped += stats->ring_dropped.load(std::memory_order_relaxed);
    result.queue_shed += stats->queue_shed.load(std::memory_order_relaxed);
    result.departed += stats->departed.load(std::memory_order_relaxed);
    result.pump_intervals.Merge(engine->pump_intervals());
  }

  if (telemetry) {
    if (telemetry->server() != nullptr) {
      result.telemetry_port = telemetry->server()->port();
    }
    telemetry->Stop();
  }
  return result;
}

}  // namespace ctrlshed
