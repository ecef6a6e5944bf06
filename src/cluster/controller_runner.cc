#include "cluster/controller_runner.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster_control_loop.h"
#include "cluster/wire.h"
#include "common/macros.h"
#include "net/frame_server.h"
#include "net/socket_util.h"
#include "rt/rt_clock.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracer.h"

namespace ctrlshed {

ClusterControlLoopOptions ClusterLoopOptions(const ExperimentConfig& base,
                                             int stale_periods) {
  ClusterControlLoopOptions o;
  o.nominal_entry_cost = NominalCost(base);
  o.target_delay = base.target_delay;
  o.monitor.period = base.period;
  o.monitor.cost_ewma = base.cost_ewma;
  o.monitor.adapt_headroom = base.adapt_headroom;
  o.monitor.stale_periods = stale_periods;
  // The controller's headroom is re-targeted from membership.
  o.ctrl = CtrlOptionsFor(base, base.headroom_est);
  o.queue_shed = base.use_queue_shedder;
  o.cost_aware = base.cost_aware_shedding;
  return o;
}

ClusterControllerResult RunClusterController(
    const ClusterControllerConfig& config) {
  const ExperimentConfig& base = config.base;
  CS_CHECK_MSG(base.method == Method::kCtrl,
               "the cluster controller drives the CTRL method");
  CS_CHECK_MSG(ExperimentConfigError(base).empty(),
               "invalid config (validate with ExperimentConfigError first)");
  IgnoreSigPipe();

  std::unique_ptr<Telemetry> telemetry = Telemetry::Open(base.telemetry);

  RtClock clock(config.time_compression);

  ClusterControlLoop ctl(ClusterLoopOptions(base, config.stale_periods));
  if (telemetry) {
    // Record callbacks fire from the serve thread (ack-completed periods)
    // and the period loop (tick-finalized ones), always under loop_mu — the
    // mutex serializes the publishes the timeline contract asks for.
    ctl.SetRecordCallback([&telemetry](const PeriodRecord& row) {
      telemetry->PublishTimelineRow(row);
    });
    // Federate piggybacked node snapshots into this registry: one scrape
    // of the controller's /metrics then covers the whole fleet.
    ctl.SetMetricsSink(telemetry->metrics());
  }

  // loop_mu serializes the threads that touch ctl and the node/conn maps:
  // the frame server's serve thread, this (period) thread, and the
  // telemetry server's thread running the sources below. Lock order:
  // loop_mu -> telemetry publish lock (the record callback publishes under
  // loop_mu) -> reactor lock. No server lock is held while a source runs,
  // so the sources take loop_mu like any other reader.
  std::mutex loop_mu;
  std::unordered_map<uint64_t, uint32_t> conn_node;  // conn -> node
  std::unordered_map<uint32_t, uint64_t> node_conn;  // node -> live conn

  // The /status cluster block and the /fleet body, built on demand.
  // Requires loop_mu held (reads ctl).
  const auto cluster_views = [&ctl, &clock, &base] {
    const SimTime now = clock.Now();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"mode\":\"cluster\",\"cluster\":{\"role\":"
                  "\"controller\",\"period\":%g,\"target_delay\":%g,"
                  "\"nodes\":%d,\"active\":%d,\"node_list\":[",
                  base.period, ctl.target_delay(), ctl.monitor().known_count(),
                  ctl.monitor().active_count());
    std::string json(buf);
    std::string fleet("{\"nodes\":[");
    const std::vector<uint32_t>& active_ids = ctl.monitor().active_ids();
    const std::vector<double>& queues = ctl.monitor().node_queues();
    bool first = true;
    for (const auto& n : ctl.monitor().nodes()) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"id\":%u,\"workers\":%u,\"active\":%s,"
                    "\"last_report_age_s\":%.3f,\"alpha\":%.4f}",
                    first ? "" : ",", n.id, n.workers,
                    n.active ? "true" : "false",
                    n.ever_reported ? now - n.last_seen : -1.0, n.alpha);
      json += buf;
      // The fleet view adds the plant decomposition the dashboard panel
      // plots: last sampled queue, cumulative loss, last report seq.
      double queue = 0.0;
      for (size_t i = 0; i < active_ids.size() && i < queues.size(); ++i) {
        if (active_ids[i] == n.id) queue = queues[i];
      }
      const uint64_t lost = n.entry_shed_total + n.ring_dropped_total;
      const double loss = n.offered_total > 0
                              ? static_cast<double>(lost) /
                                    static_cast<double>(n.offered_total)
                              : 0.0;
      // Measured per-worker headroom next to the configured one — null
      // until the node's first report with busy time (see ISSUE H_hat).
      const double h_hat = n.h_hat_tracker.value();
      char h_hat_buf[32];
      if (h_hat == h_hat) {
        std::snprintf(h_hat_buf, sizeof(h_hat_buf), "%.3f", h_hat);
      } else {
        std::snprintf(h_hat_buf, sizeof(h_hat_buf), "null");
      }
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"id\":%u,\"workers\":%u,\"fresh\":%s,"
          "\"last_report_age_s\":%.3f,\"queue\":%.3f,\"alpha\":%.4f,"
          "\"offered\":%llu,\"shed\":%llu,\"loss\":%.4f,\"last_seq\":%u,"
          "\"headroom\":%.3f,\"h_hat\":%s}",
          first ? "" : ",", n.id, n.workers, n.active ? "true" : "false",
          n.ever_reported ? now - n.last_seen : -1.0, queue, n.alpha,
          static_cast<unsigned long long>(n.offered_total),
          static_cast<unsigned long long>(lost), loss, n.last_seq,
          n.headroom, h_hat_buf);
      fleet += buf;
      first = false;
    }
    json += "]}}";
    std::snprintf(buf, sizeof(buf), "],\"period\":%g,\"target_delay\":%g}",
                  base.period, ctl.target_delay());
    fleet += buf;
    return std::make_pair(std::move(json), std::move(fleet));
  };

  ClusterControllerResult result;

  FrameServerOptions sopts;
  sopts.port = config.port;
  sopts.bind_address = config.bind_address;
  FrameServer server(sopts);
  // The serve thread owns its own trace buffer, registered lazily on the
  // first frame (registration must happen on the owning thread).
  TraceBuffer* serve_buf = nullptr;
  bool serve_buf_init = false;
  server.OnFrame([&](uint64_t conn_id, const Frame& f) {
    if (!serve_buf_init) {
      serve_buf_init = true;
      if (telemetry) serve_buf = telemetry->RegisterThread("ctl.serve");
    }
    std::lock_guard<std::mutex> lock(loop_mu);
    switch (f.type) {
      case FrameType::kHello: {
        NodeHello h;
        if (!DecodeHello(f.payload, &h)) break;
        ctl.OnHello(h, clock.Now());
        conn_node[conn_id] = h.node_id;
        node_conn[h.node_id] = conn_id;
        ++result.hellos;
        // Close the clock-sync round trip: echo the node's trace clock
        // next to ours so the node can place itself on our timebase.
        HelloAck ha;
        ha.node_id = h.node_id;
        ha.echo_t0_us = h.trace_clock_us;
        ha.ctrl_clock_us =
            (telemetry && telemetry->tracer() != nullptr)
                ? static_cast<uint64_t>(telemetry->tracer()->NowUs())
                : 0;
        server.Send(conn_id, EncodeHelloAckFrame(ha));
        return;
      }
      case FrameType::kStatsReport: {
        NodeStatsReport r;
        if (!DecodeStatsReport(f.payload, &r)) break;
        ScopedSpan span(serve_buf, "cluster.on_report");
        // ctrl_seq echoes the last actuation the node applied — the
        // cross-process correlation id (0 = none yet, don't stamp).
        if (r.ctrl_seq > 0) {
          span.SetArg("period", static_cast<int64_t>(r.ctrl_seq));
        }
        ctl.OnReport(r, clock.Now());
        ++result.reports;
        return;
      }
      case FrameType::kAck: {
        ActuationAck a;
        if (!DecodeAck(f.payload, &a)) break;
        ScopedSpan span(serve_buf, "cluster.on_ack");
        if (a.seq > 0) span.SetArg("period", static_cast<int64_t>(a.seq));
        ctl.OnAck(a);
        ++result.acks;
        return;
      }
      default:
        break;
    }
    ++result.rejected;
    char detail[48];
    std::snprintf(detail, sizeof(detail), "conn %llu frame type %u",
                  static_cast<unsigned long long>(conn_id),
                  static_cast<unsigned>(f.type));
    ctl.flight()->RecordEvent("decode_reject", detail, clock.Now());
  });
  server.OnDisconnect([&](uint64_t conn_id) {
    std::lock_guard<std::mutex> lock(loop_mu);
    auto it = conn_node.find(conn_id);
    if (it == conn_node.end()) return;
    // Only forget the mapping if this connection is still the node's
    // current one (a reconnect may already have replaced it).
    auto live = node_conn.find(it->second);
    if (live != node_conn.end() && live->second == conn_id) {
      node_conn.erase(live);
    }
    conn_node.erase(it);
  });

  if (telemetry) {
    // The /status cluster block (role, membership, per-node freshness),
    // /health and /fleet, each read from ctl when requested.
    telemetry->SetStatusSource([&] {
      std::lock_guard<std::mutex> lock(loop_mu);
      return cluster_views().first;
    });
    telemetry->SetHealthSource([&] {
      std::lock_guard<std::mutex> lock(loop_mu);
      return ctl.Health();
    });
    if (telemetry->server() != nullptr) {
      telemetry->server()->SetFleetCallback([&] {
        std::lock_guard<std::mutex> lock(loop_mu);
        return cluster_views().second;
      });
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  clock.Start();
  server.Start();
  if (config.on_ready) config.on_ready(server.port());

  // Optional bring-up barrier: give scripted nodes a window to join before
  // the first boundary, so early ticks aren't all idle.
  if (config.min_nodes > 0) {
    const auto deadline =
        wall_start + std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(
                             config.min_nodes_timeout_wall));
    while (!StopRequested(config.stop) &&
           std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard<std::mutex> lock(loop_mu);
        if (ctl.monitor().known_count() >= config.min_nodes) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // --- Period loop --------------------------------------------------------
  TraceBuffer* period_buf =
      telemetry ? telemetry->RegisterThread("ctl.period") : nullptr;
  const auto stopping = [&config] { return StopRequested(config.stop); };
  for (int64_t k = 1;; ++k) {
    const SimTime boundary = static_cast<double>(k) * base.period;
    if (boundary > base.duration) break;
    SleepUntilWall(clock.WallDeadline(boundary), stopping);
    if (stopping()) break;
    ScopedSpan span(period_buf, "cluster.tick");
    std::vector<NodeCommand> commands;
    uint32_t tick_seq = 0;
    {
      std::lock_guard<std::mutex> lock(loop_mu);
      commands = ctl.Tick(clock.Now());
      // An idle tick assigns no seq; only a commanding tick gets the
      // period id stamped on its span.
      if (!commands.empty()) tick_seq = ctl.seq();
    }
    if (tick_seq > 0) {
      span.SetArg("period", static_cast<int64_t>(tick_seq));
    }
    for (const NodeCommand& cmd : commands) {
      uint64_t conn_id = 0;
      {
        std::lock_guard<std::mutex> lock(loop_mu);
        auto it = node_conn.find(cmd.node_id);
        if (it == node_conn.end()) continue;  // node dropped mid-period
        conn_id = it->second;
      }
      server.Send(conn_id, EncodeActuationFrame(cmd.act));
    }
  }
  result.interrupted = StopRequested(config.stop);

  server.Stop();
  {
    std::lock_guard<std::mutex> lock(loop_mu);
    ctl.Flush();
    result.recorder = ctl.recorder();
    result.ticks = ctl.ticks();
    result.idle_ticks = ctl.idle_ticks();
    result.nodes_seen = ctl.monitor().known_count();
    result.final_active = ctl.monitor().active_count();
    for (const auto& n : ctl.monitor().nodes()) {
      result.total_workers += static_cast<int>(n.workers);
    }
    result.health = ctl.Health();
  }
  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.port = server.port();
  result.connections = server.connections_accepted();
  result.corrupt_streams = server.corrupt_streams();

  if (telemetry) {
    if (telemetry->server() != nullptr) {
      result.telemetry_port = telemetry->server()->port();
    }
    telemetry->Stop();
  }
  return result;
}

}  // namespace ctrlshed
