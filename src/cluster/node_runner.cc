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
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "net/socket_util.h"
#include "rt/rt_clock.h"
#include "rt/rt_loop.h"
#include "rt/rt_runtime.h"
#include "telemetry/fleet_metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracer.h"

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
  CS_CHECK_MSG(ExperimentConfigError(base).empty(),
               "invalid config (validate with ExperimentConfigError first)");
  CS_CHECK_MSG(RtPlantError(config).empty(),
               "invalid plant knobs (validate with RtPlantError first)");
  IgnoreSigPipe();  // a dying peer must never kill the node process

  const int workers = config.workers;

  std::unique_ptr<Telemetry> telemetry = Telemetry::Open(base.telemetry);
  if (telemetry) {
    const uint32_t node_id = config.node_id;
    const double period = base.period;
    telemetry->SetStatusSource([node_id, workers, period] {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "{\"mode\":\"cluster\",\"cluster\":{\"role\":\"node\","
                    "\"node_id\":%u,\"workers\":%d,\"period\":%g}}",
                    node_id, workers, period);
      return std::string(buf);
    });
  }
  Counter* rejected_metric =
      telemetry ? telemetry->metrics()->GetCounter("net.ingress.rejected")
                : nullptr;
  // Mirrors the ingress server's own count, stored once per period.
  Counter* wakeups_metric =
      telemetry ? telemetry->metrics()->GetCounter("net.ingress.wakeups")
                : nullptr;

  // The plant: the sharded rt runtime's, with the shard index node-local
  // (each node is its own plant; the cluster-wide view lives in the
  // controller's aggregation).
  RtClock clock(config.time_compression);
  RtPlant plant = BuildRtPlant(base, config, telemetry.get(), &clock);

  NodeAgent agent(NominalCost(base), plant.shedders(),
                  NodeAgentOptionsFor(base, config.node_id));

  // One plant mutex serializes the three users of the shedders/agent:
  // ingress admission (serve thread), the period tick (report thread), and
  // remote actuation (control reader thread).
  std::mutex plant_mu;

  // Each in-network budget crosses into the workers through the plant's plan
  // handshake. The poster only runs inside agent.Apply, under plant_mu.
  agent.SetBudgetPoster([&plant](size_t i, const ActuationPlan& plan) {
    plant.PostPlan(i, plan);
  });

  // HealthMonitor is internally locked, so the server thread may read a
  // verdict without plant_mu. Lifetime: the explicit telemetry->Stop()
  // below shuts the server down before `agent` leaves scope (failures
  // abort, never unwind).
  if (telemetry) {
    telemetry->SetHealthSource([&agent] { return agent.Health(); });
  }

  ClusterNodeResult result;

  // --- Tuple ingress ------------------------------------------------------
  // The ingress reads once per pump interval: a tuple read sooner would
  // only wait in its SPSC ring for the next worker pump, and one wake per
  // frame made the reactor's syscalls most of the node's CPU.
  TupleBatch batch;  // reused by every frame, on the serve thread
  FrameServerOptions sopts;
  sopts.port = config.ingress_port;
  sopts.bind_address = config.bind_address;
  sopts.read_interval_wall = config.pacing_wall_seconds;
  FrameServer ingress(sopts);
  ingress.OnFrame([&](uint64_t /*conn_id*/, const Frame& f) {
    if (f.type != FrameType::kTupleBatch ||
        !DecodeTupleBatch(f.payload, &batch)) {
      ++result.ingress_rejected;
      if (rejected_metric != nullptr) rejected_metric->Add(1);
      agent.flight()->RecordEvent("decode_reject", "ingress tuple batch",
                                  clock.Now());
      return;
    }
    // Route on the unsigned wire id: any u32 source maps to a shard. Each
    // shard engine has a single local source.
    const size_t shard = batch.source % plant.size();
    AdmitToShard(plant.engine(shard), plant.shedder(shard), &plant_mu,
                 /*local_source=*/0, batch.tuples.data(), batch.tuples.size());
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
  plant.Start();
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
  const auto stopping = [&config] { return StopRequested(config.stop); };
  for (int64_t k = 1;; ++k) {
    const SimTime boundary = static_cast<double>(k) * base.period;
    if (boundary > base.duration) break;
    SleepUntilWall(clock.WallDeadline(boundary), stopping);
    if (stopping()) break;
    ScopedSpan span(period_buf, "cluster.report");
    const SimTime now = clock.Now();
    plant.Snapshot(now, &samples);
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
    if (wakeups_metric != nullptr) wakeups_metric->Store(ingress.wakeups());
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
  plant.Stop();
  const auto wall_end = std::chrono::steady_clock::now();

  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.ingress_port = ingress.port();
  result.ingress_connections = ingress.connections_accepted();
  result.ingress_frames = ingress.frames_received();
  result.corrupt_streams = ingress.corrupt_streams();
  result.ingress_wakeups = ingress.wakeups();
  if (wakeups_metric != nullptr) wakeups_metric->Store(result.ingress_wakeups);
  result.final_alpha = agent.last_alpha();
  result.health = agent.Health();
  const RtShardSummary totals = plant.Totals();
  result.offered = totals.offered;
  result.entry_shed = totals.entry_shed;
  result.ring_dropped = totals.ring_dropped;
  result.queue_shed = totals.queue_shed;
  result.departed = totals.departed;
  result.pump_intervals = plant.PumpIntervals();

  if (telemetry) {
    if (telemetry->server() != nullptr) {
      result.telemetry_port = telemetry->server()->port();
    }
    telemetry->Stop();
  }
  return result;
}

}  // namespace ctrlshed
