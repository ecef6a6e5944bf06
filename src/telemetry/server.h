#ifndef CTRLSHED_TELEMETRY_SERVER_H_
#define CTRLSHED_TELEMETRY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/reactor.h"
#include "telemetry/metrics_registry.h"

namespace ctrlshed {

struct TelemetryServerOptions {
  /// TCP port to bind on `bind_address`. 0 picks an ephemeral port — read
  /// it back from port() after Start().
  int port = 0;
  /// IPv4 address to bind. The default keeps the historical loopback-only
  /// posture; a non-loopback bind (e.g. "0.0.0.0" for a real fleet) is
  /// refused at Start() unless `auth_token` is set.
  std::string bind_address = "127.0.0.1";
  /// When non-empty, every request must present this bearer token —
  /// `Authorization: Bearer <token>` or, for EventSource/dashboard use
  /// where headers are unavailable, a `?token=<token>` query parameter.
  /// Compared in constant time; failures get 401. Empty (the default)
  /// keeps loopback behavior unchanged.
  std::string auth_token;
  /// Per-client pending-write cap. A client that cannot drain its socket
  /// fast enough loses whole timeline rows (counted, never blocking the
  /// publisher) once its buffer is full — the tracer-ring discipline
  /// applied to sockets.
  size_t client_buffer_bytes = 256 * 1024;
  /// Timeline rows replayed to a subscriber that connects mid-run, so a
  /// late dashboard (or the e2e test) still sees the rows published before
  /// its GET /timeline arrived.
  size_t history_rows = 4096;
  /// Connections beyond this are accepted and immediately closed.
  int max_clients = 64;
  /// Stop() keeps flushing connected clients for at most this many wall
  /// seconds before force-closing them.
  double drain_timeout_wall = 2.0;
  /// When > 0, SO_SNDBUF is set on accepted sockets. Tests use a tiny
  /// value to provoke slow-client drops without megabytes of traffic.
  int sndbuf_bytes = 0;
};

/// Dependency-free HTTP/1.1 observability server: the HTTP and SSE
/// protocol over the shared socket Reactor (net/reactor.h), loopback by
/// default (non-loopback binds require a bearer token — see
/// TelemetryServerOptions). Endpoints:
///
///   GET /          embedded HTML dashboard charting the SSE feed live
///   GET /metrics   Prometheus text exposition of the MetricsRegistry
///   GET /timeline  SSE stream of per-period timeline rows (history replay
///                  on connect, then live)
///   GET /status    one JSON snapshot: uptime, SSE stats, build block,
///                  app section
///   GET /fleet     cluster membership JSON from the fleet callback
///                  ({"nodes":[]} when no callback is installed)
///   GET /health    control-loop health verdict from the health callback
///                  (ok/degraded answer 200, critical 503)
///   POST /debug/dump  writes a flight-recorder dump (see
///                  telemetry/flight_recorder.h) and returns its JSON
///
/// The publisher (PublishTimelineRow) never waits on a client or on a
/// handler: rows that do not fit a client's bounded buffer are dropped for
/// that client and counted, and every request handler, callbacks
/// included, runs on the serve thread with no server lock held. Other
/// methods return 405, unknown paths 404.
class TelemetryServer {
 public:
  /// `registry` backs GET /metrics; may be null (renders empty). The
  /// server also registers `telemetry.sse.rows_published` /
  /// `telemetry.sse.rows_dropped` counters in it so the live-feed health
  /// is itself scrapeable.
  TelemetryServer(MetricsRegistry* registry, TelemetryServerOptions options);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds <bind_address>:<port>, starts the serving thread. Aborts if
  /// the port cannot be bound, the address does not parse, or a
  /// non-loopback bind is requested without an auth token.
  void Start();

  /// Flushes connected clients (bounded by drain_timeout_wall), closes
  /// all sockets, joins the thread. Idempotent.
  void Stop();

  /// The bound port (resolves port 0 requests). Valid after Start().
  int port() const { return reactor_.port(); }

  /// Enqueues one timeline row (serialized JSON object, no newline) to
  /// every /timeline subscriber and the replay history. Called from the
  /// control thread; never blocks on client sockets or handlers.
  void PublishTimelineRow(const std::string& row_json);

  /// Supplies the "app" section of GET /status: a complete JSON value
  /// (object) describing run config / shard summaries / trace counts.
  /// Called from the server thread with no server lock held; must be
  /// thread-safe. May be swapped while the server runs.
  void SetStatusCallback(std::function<std::string()> cb);

  /// Supplies the GET /fleet body: a complete JSON object describing
  /// cluster membership (per-node q/alpha/loss/freshness). Same contract
  /// as the status callback.
  void SetFleetCallback(std::function<std::string()> cb);

  /// Supplies the GET /health response: HTTP status code plus a complete
  /// JSON body (HealthReport::HttpStatus()/ToJson()). Same contract as
  /// the status callback. Without a callback /health answers 200 with
  /// {"verdict":"unknown",…}.
  void SetHealthCallback(std::function<std::pair<int, std::string>()> cb);

  uint64_t rows_published() const {
    return rows_published_.load(std::memory_order_relaxed);
  }
  /// Total rows dropped across all slow clients.
  uint64_t rows_dropped() const {
    return rows_dropped_.load(std::memory_order_relaxed);
  }
  uint64_t clients_accepted() const { return reactor_.accepted(); }

 private:
  size_t OnRequestBytes(uint64_t conn_id, std::string_view unread);
  void HandleRequest(uint64_t conn_id, const std::string& method,
                     const std::string& path);
  void Subscribe(uint64_t conn_id);
  void Respond(uint64_t conn_id, const char* status,
               const char* content_type, const std::string& body);
  std::string StatusJson();
  /// A copy of `cb` taken under mu_, so the caller runs it unlocked.
  template <typename F>
  F CallbackCopy(const F& cb) {
    std::lock_guard<std::mutex> lock(mu_);
    return cb;
  }

  MetricsRegistry* registry_;
  TelemetryServerOptions options_;

  /// Guards history_, subscribers_ and the callbacks. Taken before the
  /// reactor's lock: a replay and the live fan-out are atomic with respect
  /// to each other, so each row reaches each subscriber once, in order.
  std::mutex mu_;
  std::deque<std::string> history_;
  std::vector<uint64_t> subscribers_;  ///< /timeline connections
  std::function<std::string()> status_cb_;
  std::function<std::string()> fleet_cb_;
  std::function<std::pair<int, std::string>()> health_cb_;

  std::atomic<uint64_t> rows_published_{0};
  std::atomic<uint64_t> rows_dropped_{0};
  Counter* published_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  double start_wall_ = 0.0;
  Reactor reactor_;  // last: its serve thread uses the members above
};

}  // namespace ctrlshed

#endif  // CTRLSHED_TELEMETRY_SERVER_H_
