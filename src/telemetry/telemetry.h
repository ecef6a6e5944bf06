#ifndef CTRLSHED_TELEMETRY_TELEMETRY_H_
#define CTRLSHED_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "metrics/recorder.h"
#include "telemetry/health.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/server.h"
#include "telemetry/tracer.h"

namespace ctrlshed {

/// What to collect and where to put it. With an empty `dir` AND a negative
/// `server_port`, telemetry is off entirely: Telemetry::Open returns null
/// and every instrumentation site degrades to a single null-pointer
/// branch. An empty `dir` with a server port runs socket-only (no files).
struct TelemetryOptions {
  std::string dir;      ///< Output directory; created if missing.
  bool trace = true;    ///< Collect spans into <dir>/trace.json.
  /// Wall seconds between metrics.jsonl snapshots (and trace-ring drains).
  double export_period_wall = 0.25;
  /// Per-thread trace ring capacity, in events.
  size_t trace_buffer_capacity = 1 << 14;

  /// Port for the live HTTP/SSE server: negative disables it, 0 picks an
  /// ephemeral port (observe via on_server_start / server()).
  int server_port = -1;
  /// IPv4 address the server binds. Non-loopback requires
  /// `server_auth_token` (enforced at startup).
  std::string server_bind_address = "127.0.0.1";
  /// Bearer token gating every server request when non-empty.
  std::string server_auth_token;
  /// Per-SSE-client pending-write cap; rows beyond it are dropped for
  /// that client and counted.
  size_t server_client_buffer_bytes = 256 * 1024;
  /// Timeline rows replayed to subscribers that connect mid-run.
  size_t server_history_rows = 4096;
  /// When > 0, SO_SNDBUF for accepted sockets (tests shrink it).
  int server_sndbuf_bytes = 0;
  /// Called once with the bound port after the server starts.
  std::function<void(int)> on_server_start;
};

/// One telemetry session: a Tracer, a MetricsRegistry, an optional live
/// TelemetryServer, and a background exporter thread that every
/// `export_period_wall` seconds appends a registry snapshot to
/// <dir>/metrics.jsonl and drains the trace rings. Stop() (idempotent,
/// also run by the destructor) takes a final snapshot, serializes the
/// trace to <dir>/trace.json, and shuts the server down.
///
/// The control-loop timeline flows through PublishTimelineRow: one call
/// per finished period formats the row once (the kPeriodFields schema)
/// and writes it to timeline.csv and timeline.jsonl, flushed per row, and
/// to GET /timeline subscribers, so the live stream and the files carry
/// identical rows.
///
/// Thread-safety: RegisterThread/metrics() may be called from any thread;
/// each TraceBuffer is single-producer as documented on the tracer;
/// PublishTimelineRow must come from a single thread (the control loop).
class Telemetry {
 public:
  /// Creates the directory (when set), points post-mortem flight dumps at
  /// <dir>/ctrlshed.flightdump.json, and starts the exporter and server.
  /// Returns null when both `dir` is empty and `server_port` is negative
  /// (telemetry off). Aborts if the directory cannot be created or the
  /// port cannot be bound.
  static std::unique_ptr<Telemetry> Open(const TelemetryOptions& options);

  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Registers the calling thread for tracing; null when tracing is off —
  /// callers keep the pointer and pass it to ScopedSpan unconditionally.
  TraceBuffer* RegisterThread(const std::string& name);

  MetricsRegistry* metrics() { return &metrics_; }
  Tracer* tracer() { return tracer_.get(); }  ///< Null when trace is off.
  TelemetryServer* server() { return server_.get(); }  ///< Null when off.

  /// Publishes one finished control period to timeline.csv,
  /// timeline.jsonl and the SSE subscribers. Control thread only.
  void PublishTimelineRow(const PeriodRecord& row);

  /// Rows published through PublishTimelineRow so far.
  uint64_t timeline_rows() const {
    return timeline_rows_.load(std::memory_order_relaxed);
  }

  /// Supplies the "app" JSON value of the server's GET /status (run
  /// config, shard summaries, …). The callback runs on the server thread
  /// with no server lock held, so it must be thread-safe and may take the
  /// caller's own locks. May be swapped while the server runs. No-op
  /// without a server.
  void SetStatusSource(std::function<std::string()> app_status);

  /// Serves `health`'s verdict on GET /health (HTTP status and JSON body
  /// from the report). Same contract as SetStatusSource.
  void SetHealthSource(std::function<HealthReport()> health);

  /// Joins the exporter, flushes metrics.jsonl, writes trace.json, stops
  /// the server (draining connected clients briefly).
  void Stop();

  const std::string& dir() const { return options_.dir; }
  std::string trace_path() const;
  std::string metrics_path() const;

  /// Valid after Stop(): total span/instant events captured and dropped.
  uint64_t trace_events() const;
  uint64_t trace_dropped() const;

  /// Live-feed health (0 when no server is running).
  uint64_t sse_rows_published() const;
  uint64_t sse_rows_dropped() const;
  uint64_t sse_clients_accepted() const;

 private:
  explicit Telemetry(TelemetryOptions options);

  void ExportLoop();
  void FlushOnce();

  TelemetryOptions options_;
  MetricsRegistry metrics_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<TelemetryServer> server_;
  std::ofstream timeline_csv_;
  std::ofstream timeline_jsonl_;
  std::atomic<uint64_t> timeline_rows_{0};

  std::ofstream metrics_out_;
  // Self-observability: the telemetry system's own loss counters, mirrored
  // into the registry each flush so /metrics reports observability gaps
  // (dropped spans, failed exports) instead of only the end-of-run summary.
  Counter* trace_events_counter_ = nullptr;
  Counter* trace_dropped_counter_ = nullptr;
  Counter* export_failures_counter_ = nullptr;
  std::chrono::steady_clock::time_point start_wall_;
  std::atomic<bool> stop_{false};
  std::thread exporter_;
  bool stopped_ = false;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_TELEMETRY_TELEMETRY_H_
