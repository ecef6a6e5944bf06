#include "telemetry/server.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/build_info.h"
#include "common/macros.h"
#include "net/socket_util.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/prom_export.h"

namespace ctrlshed {

namespace {

constexpr size_t kMaxRequestBytes = 8192;

/// Token comparison without a data-dependent early exit: the XOR
/// accumulator touches every byte of the presented token regardless of
/// where the first mismatch sits, so response timing does not narrow the
/// search. Only the (public) token length leaks via the length check.
bool ConstantTimeEquals(const std::string& presented,
                        const std::string& expected) {
  unsigned char acc = presented.size() == expected.size() ? 0 : 1;
  const size_t n = expected.empty() ? 1 : expected.size();
  for (size_t i = 0; i < presented.size(); ++i) {
    acc |= static_cast<unsigned char>(presented[i]) ^
           static_cast<unsigned char>(expected[i % n]);
  }
  return acc == 0;
}

/// Extracts the value of an `Authorization: Bearer <token>` header from
/// the raw request head (request line + headers, CRLF-separated). Header
/// names are case-insensitive per RFC 9110.
std::string BearerToken(const std::string& head) {
  static constexpr char kKey[] = "authorization:";
  constexpr size_t kKeyLen = sizeof(kKey) - 1;
  size_t pos = 0;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    if (eol - pos > kKeyLen) {
      bool match = true;
      for (size_t i = 0; i < kKeyLen; ++i) {
        if (std::tolower(static_cast<unsigned char>(head[pos + i])) !=
            kKey[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        std::string v = head.substr(pos + kKeyLen, eol - pos - kKeyLen);
        const size_t b = v.find_first_not_of(" \t");
        if (b == std::string::npos) return "";
        v.erase(0, b);
        const std::string scheme = "Bearer ";
        if (v.rfind(scheme, 0) == 0) return v.substr(scheme.size());
        return "";
      }
    }
    if (eol == head.size()) break;
    pos = eol + 2;
  }
  return "";
}

/// Extracts `token=<value>` from the request path's query string (the
/// header-less channel EventSource and the dashboard need).
std::string QueryToken(const std::string& path) {
  const size_t q = path.find('?');
  if (q == std::string::npos) return "";
  size_t pos = q + 1;
  while (pos <= path.size()) {
    size_t amp = path.find('&', pos);
    if (amp == std::string::npos) amp = path.size();
    static constexpr char kKey[] = "token=";
    constexpr size_t kKeyLen = sizeof(kKey) - 1;
    if (amp - pos > kKeyLen && path.compare(pos, kKeyLen, kKey) == 0) {
      return path.substr(pos + kKeyLen, amp - pos - kKeyLen);
    }
    pos = amp + 1;
  }
  return "";
}

double NowWall() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The whole dashboard ships inline so GET / works with zero files on disk:
// three autoscaled strip charts fed by the same SSE stream the tests
// assert on.
constexpr const char kDashboardHtml[] = R"html(<!doctype html>
<html>
<head>
<meta charset="utf-8">
<title>ctrlshed live telemetry</title>
<style>
  body { font-family: monospace; background: #111; color: #ddd; margin: 1em; }
  h1 { font-size: 1.1em; }
  .chart { margin-bottom: 1em; }
  canvas { background: #181818; border: 1px solid #333; display: block; }
  .legend { font-size: 0.85em; color: #999; }
  #stat { color: #7a7; }
</style>
</head>
<body>
<h1>ctrlshed control loop <span id="stat">connecting&hellip;</span> &middot; health <span id="health">?</span></h1>
<div class="chart"><div class="legend">delay: <span style="color:#6cf">y_hat</span> vs <span style="color:#fc6">yd (setpoint)</span></div><canvas id="c_y" width="900" height="160"></canvas></div>
<div class="chart"><div class="legend">rates: <span style="color:#6cf">u = v - fout</span>, <span style="color:#fc6">v</span></div><canvas id="c_u" width="900" height="160"></canvas></div>
<div class="chart"><div class="legend">shedding: <span style="color:#6cf">alpha</span>, <span style="color:#fc6">loss</span></div><canvas id="c_a" width="900" height="160"></canvas></div>
<div class="chart" id="fleet" style="display:none"><div class="legend">cluster fleet (from /fleet)</div><table id="fleet_t" style="border-collapse:collapse"></table></div>
<style>
  #fleet_t td, #fleet_t th { border: 1px solid #333; padding: 2px 8px; text-align: right; }
  #fleet_t th { color: #999; font-weight: normal; }
  .fresh { color: #7a7; } .stale { color: #d66; }
</style>
<script>
'use strict';
const WINDOW = 600;
const rows = [];
// On an authenticated bind the token rides the query string — EventSource
// and plain dashboard links cannot set an Authorization header.
const TOKEN = new URLSearchParams(location.search).get('token');
const QS = TOKEN ? ('?token=' + encodeURIComponent(TOKEN)) : '';
function draw(id, series) {
  const cv = document.getElementById(id), g = cv.getContext('2d');
  g.clearRect(0, 0, cv.width, cv.height);
  let lo = Infinity, hi = -Infinity;
  for (const s of series) for (const v of s.data) {
    if (v == null || !isFinite(v)) continue;
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
  if (!isFinite(lo)) return;
  if (hi - lo < 1e-12) { hi += 1; lo -= 1; }
  const pad = (hi - lo) * 0.08; lo -= pad; hi += pad;
  g.fillStyle = '#666'; g.font = '10px monospace';
  g.fillText(hi.toPrecision(4), 4, 12);
  g.fillText(lo.toPrecision(4), 4, cv.height - 4);
  for (const s of series) {
    g.strokeStyle = s.color; g.beginPath();
    let pen = false;
    for (let i = 0; i < s.data.length; i++) {
      const v = s.data[i];
      if (v == null || !isFinite(v)) { pen = false; continue; }
      const x = i * cv.width / Math.max(WINDOW - 1, s.data.length - 1);
      const y = cv.height - (v - lo) / (hi - lo) * cv.height;
      if (pen) g.lineTo(x, y); else { g.moveTo(x, y); pen = true; }
    }
    g.stroke();
  }
}
function redraw() {
  const col = (f) => rows.map(f);
  draw('c_y', [{color: '#6cf', data: col(r => r.y_hat)},
               {color: '#fc6', data: col(r => r.yd)}]);
  draw('c_u', [{color: '#6cf', data: col(r => r.u)},
               {color: '#fc6', data: col(r => r.v)}]);
  draw('c_a', [{color: '#6cf', data: col(r => r.alpha)},
               {color: '#fc6', data: col(r => r.loss)}]);
}
const es = new EventSource('/timeline' + QS);
es.onopen = () => { document.getElementById('stat').textContent = 'live'; };
es.onerror = () => { document.getElementById('stat').textContent = 'disconnected'; };
es.onmessage = (ev) => {
  rows.push(JSON.parse(ev.data));
  if (rows.length > WINDOW) rows.shift();
  const last = rows[rows.length - 1];
  document.getElementById('stat').textContent =
      'live · k=' + last.k + ' t=' + last.t.toFixed(2) +
      ' q=' + last.q.toFixed(0) + ' alpha=' + last.alpha.toFixed(3);
  redraw();
};
async function pollFleet() {
  let j = null;
  try {
    const r = await fetch('/fleet' + QS);
    if (!r.ok) return;
    j = await r.json();
  } catch (e) { return; }
  const panel = document.getElementById('fleet');
  if (!j || !j.nodes || !j.nodes.length) { panel.style.display = 'none'; return; }
  panel.style.display = 'block';
  let html = '<tr><th>node</th><th>workers</th><th>fresh</th><th>q</th>' +
             '<th>alpha</th><th>loss</th><th>report age (s)</th></tr>';
  for (const n of j.nodes) {
    html += '<tr><td>' + n.id + '</td><td>' + n.workers + '</td>' +
        '<td class="' + (n.fresh ? 'fresh">yes' : 'stale">no') + '</td>' +
        '<td>' + (n.queue == null ? '-' : n.queue.toFixed(0)) + '</td>' +
        '<td>' + n.alpha.toFixed(3) + '</td>' +
        '<td>' + (n.loss * 100).toFixed(1) + '%</td>' +
        '<td>' + (n.last_report_age_s < 0 ? 'never' : n.last_report_age_s.toFixed(2)) + '</td></tr>';
  }
  document.getElementById('fleet_t').innerHTML = html;
}
setInterval(pollFleet, 2000);
pollFleet();
async function pollHealth() {
  let j = null;
  try {
    const r = await fetch('/health' + QS);
    j = await r.json();
  } catch (e) { return; }
  if (!j || !j.verdict) return;
  const el = document.getElementById('health');
  let text = j.verdict;
  if (j.reasons && j.reasons.length) text += ' [' + j.reasons.join(' ') + ']';
  if (j.warnings && j.warnings.length) text += ' (' + j.warnings.join(' ') + ')';
  el.textContent = text;
  el.className = j.verdict === 'ok' ? 'fresh' : 'stale';
}
setInterval(pollHealth, 2000);
pollHealth();
</script>
</body>
</html>
)html";

}  // namespace

TelemetryServer::TelemetryServer(MetricsRegistry* registry,
                                 TelemetryServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      reactor_(
          {.port = options_.port,
           .bind_address = options_.bind_address,
           .max_clients = options_.max_clients,
           .drain_timeout_wall = options_.drain_timeout_wall,
           .sndbuf_bytes = options_.sndbuf_bytes},
          [this](uint64_t id, std::string_view unread) {
            return OnRequestBytes(id, unread);
          },
          [this](uint64_t id) {
            std::lock_guard<std::mutex> lock(mu_);
            subscribers_.erase(
                std::remove(subscribers_.begin(), subscribers_.end(), id),
                subscribers_.end());
          }) {}

TelemetryServer::~TelemetryServer() { Stop(); }

void TelemetryServer::Start() {
  // Refuse to expose the server beyond loopback without authentication —
  // an open /metrics + dashboard on a fleet port is an information leak.
  CS_CHECK_MSG(IsLoopbackAddress(options_.bind_address) ||
                   !options_.auth_token.empty(),
               "telemetry server: non-loopback bind requires an auth token "
               "(set --telemetry-token)");
  if (registry_ != nullptr) {
    published_counter_ = registry_->GetCounter("telemetry.sse.rows_published");
    dropped_counter_ = registry_->GetCounter("telemetry.sse.rows_dropped");
  }
  start_wall_ = NowWall();
  reactor_.Start();
}

void TelemetryServer::Stop() { reactor_.Stop(); }

void TelemetryServer::SetStatusCallback(std::function<std::string()> cb) {
  std::lock_guard<std::mutex> lock(mu_);
  status_cb_ = std::move(cb);
}

void TelemetryServer::SetFleetCallback(std::function<std::string()> cb) {
  std::lock_guard<std::mutex> lock(mu_);
  fleet_cb_ = std::move(cb);
}

void TelemetryServer::SetHealthCallback(
    std::function<std::pair<int, std::string>()> cb) {
  std::lock_guard<std::mutex> lock(mu_);
  health_cb_ = std::move(cb);
}

void TelemetryServer::PublishTimelineRow(const std::string& row_json) {
  const std::string frame = "data: " + row_json + "\n\n";
  {
    std::lock_guard<std::mutex> lock(mu_);
    history_.push_back(row_json);
    while (history_.size() > options_.history_rows) history_.pop_front();
    for (uint64_t id : subscribers_) {
      if (reactor_.Send(id, frame, options_.client_buffer_bytes) ==
          Reactor::SendResult::kFull) {
        // Never stall the control thread on a stuck socket: the row is
        // gone for this client, and the count makes the gap visible.
        rows_dropped_.fetch_add(1, std::memory_order_relaxed);
        if (dropped_counter_ != nullptr) dropped_counter_->Add();
      }
    }
  }
  rows_published_.fetch_add(1, std::memory_order_relaxed);
  if (published_counter_ != nullptr) published_counter_->Add();
}

std::string TelemetryServer::StatusJson() {
  size_t streams = 0;
  std::function<std::string()> cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    streams = subscribers_.size();
    cb = status_cb_;
  }
  std::ostringstream out;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", NowWall() - start_wall_);
  out << "{\"uptime_s\":" << buf << ",\"port\":" << port()
      << ",\"build\":" << BuildInfoJson() << ",\"sse\":{"
      << "\"clients\":" << reactor_.connections()
      << ",\"streams\":" << streams
      << ",\"clients_accepted\":" << clients_accepted()
      << ",\"rows_published\":" << rows_published()
      << ",\"rows_dropped\":" << rows_dropped() << "},\"app\":"
      << (cb ? cb() : std::string("null")) << "}";
  return out.str();
}

void TelemetryServer::Respond(uint64_t conn_id, const char* status,
                              const char* content_type,
                              const std::string& body) {
  std::ostringstream out;
  out << "HTTP/1.1 " << status << "\r\nContent-Type: " << content_type
      << "\r\nContent-Length: " << body.size()
      << "\r\nConnection: close\r\n\r\n"
      << body;
  reactor_.Send(conn_id, out.str());
  reactor_.Close(conn_id, /*after_flush=*/true);
}

// Replays the history and subscribes under mu_, so a row published
// meanwhile reaches this subscriber exactly once, after the replay.
void TelemetryServer::Subscribe(uint64_t conn_id) {
  std::string replay =
      "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
      "Cache-Control: no-cache\r\nConnection: keep-alive\r\n\r\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& row : history_) replay += "data: " + row + "\n\n";
  if (reactor_.Send(conn_id, replay) != Reactor::SendResult::kGone) {
    subscribers_.push_back(conn_id);
  }
}

void TelemetryServer::HandleRequest(uint64_t conn_id,
                                    const std::string& method,
                                    const std::string& path) {
  const std::string route = path.substr(0, path.find('?'));
  if (method == "POST" && route == "/debug/dump") {
    // On-demand post-mortem: write the flight dump where a crash would,
    // then return the same JSON. The file read happens on the server
    // thread — acceptable for a one-shot debugging endpoint.
    std::string body;
    if (WriteFlightDump("request", "POST /debug/dump")) {
      std::ifstream in(FlightDumpPath(), std::ios::binary);
      std::ostringstream tmp;
      tmp << in.rdbuf();
      body = tmp.str();
    }
    if (body.empty()) {
      Respond(conn_id, "503 Service Unavailable", "text/plain",
              "flight dump failed\n");
    } else {
      Respond(conn_id, "200 OK", "application/json", body);
    }
    return;
  }
  if (method != "GET") {
    Respond(conn_id, "405 Method Not Allowed", "text/plain",
            "only GET is supported (POST only on /debug/dump)\n");
    return;
  }
  if (route == "/") {
    Respond(conn_id, "200 OK", "text/html; charset=utf-8", kDashboardHtml);
  } else if (route == "/metrics") {
    std::ostringstream body;
    if (registry_ != nullptr) {
      WritePrometheusText(registry_->Snapshot(), body);
    }
    Respond(conn_id, "200 OK", "text/plain; version=0.0.4; charset=utf-8",
            body.str());
  } else if (route == "/status") {
    Respond(conn_id, "200 OK", "application/json", StatusJson());
  } else if (route == "/fleet") {
    const auto cb = CallbackCopy(fleet_cb_);
    Respond(conn_id, "200 OK", "application/json",
            cb ? cb() : std::string("{\"nodes\":[]}"));
  } else if (route == "/health") {
    const auto cb = CallbackCopy(health_cb_);
    if (cb) {
      const std::pair<int, std::string> r = cb();
      Respond(conn_id, r.first == 503 ? "503 Service Unavailable" : "200 OK",
              "application/json", r.second);
    } else {
      Respond(conn_id, "200 OK", "application/json",
              "{\"verdict\":\"unknown\",\"reasons\":[],\"warnings\":[]}");
    }
  } else if (route == "/timeline") {
    Subscribe(conn_id);
  } else {
    Respond(conn_id, "404 Not Found", "text/plain",
            "unknown path; try /, /metrics, /status, /fleet, /health, "
            "/timeline\n");
  }
}

// The HTTP protocol: waits for one complete request head, answers it, and
// consumes everything the peer sent (one request per connection).
size_t TelemetryServer::OnRequestBytes(uint64_t conn_id,
                                       std::string_view unread) {
  {
    // A subscriber has nothing more to say; its bytes are read only so
    // the reactor notices the hangup.
    std::lock_guard<std::mutex> lock(mu_);
    if (std::find(subscribers_.begin(), subscribers_.end(), conn_id) !=
        subscribers_.end()) {
      return unread.size();
    }
  }
  if (unread.size() > kMaxRequestBytes) {
    Respond(conn_id, "431 Request Header Fields Too Large", "text/plain",
            "request too large\n");
    return unread.size();
  }
  const size_t end = unread.find("\r\n\r\n");
  if (end == std::string_view::npos) return 0;
  const std::string head(unread.substr(0, end));
  std::istringstream req_line(head.substr(0, head.find("\r\n")));
  std::string method, path;
  req_line >> method >> path;
  if (method.empty() || path.empty()) {
    Respond(conn_id, "400 Bad Request", "text/plain", "bad request\n");
    return unread.size();
  }
  if (!options_.auth_token.empty()) {
    // Evaluate both channels unconditionally so the comparison count does
    // not depend on which (if either) carried the right token.
    const bool header_ok =
        ConstantTimeEquals(BearerToken(head), options_.auth_token);
    const bool query_ok =
        ConstantTimeEquals(QueryToken(path), options_.auth_token);
    if (!header_ok && !query_ok) {
      Respond(conn_id, "401 Unauthorized", "text/plain",
              "missing or invalid bearer token\n");
      return unread.size();
    }
  }
  HandleRequest(conn_id, method, path);
  return unread.size();
}

}  // namespace ctrlshed
