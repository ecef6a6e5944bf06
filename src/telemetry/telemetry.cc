#include "telemetry/telemetry.h"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/macros.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/timeline.h"

namespace ctrlshed {

namespace {
// Exporter sleep granularity; bounds Stop() latency like the rt threads.
constexpr auto kMaxSleepChunk = std::chrono::milliseconds(5);
}  // namespace

std::unique_ptr<Telemetry> Telemetry::Open(const TelemetryOptions& options) {
  if (options.dir.empty() && options.server_port < 0) return nullptr;
  if (!options.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.dir, ec);
    CS_CHECK_MSG(!ec, "cannot create telemetry directory");
    CS_CHECK_MSG(SetFlightDumpPath(options.dir + "/ctrlshed.flightdump.json"),
                 "telemetry directory path too long for flight dumps");
  }
  return std::unique_ptr<Telemetry>(new Telemetry(options));
}

Telemetry::Telemetry(TelemetryOptions options) : options_(std::move(options)) {
  CS_CHECK_MSG(options_.export_period_wall > 0.0,
               "export period must be positive");
  const bool have_dir = !options_.dir.empty();
  if (have_dir && options_.trace) {
    tracer_ = std::make_unique<Tracer>(options_.trace_buffer_capacity);
    trace_events_counter_ = metrics_.GetCounter("telemetry.trace.events");
    trace_dropped_counter_ =
        metrics_.GetCounter("telemetry.trace.dropped_events");
  }
  if (have_dir) {
    export_failures_counter_ =
        metrics_.GetCounter("telemetry.export.write_failures");
    metrics_out_.open(metrics_path());
    CS_CHECK_MSG(metrics_out_.good(), "cannot open metrics.jsonl");
    timeline_csv_.open(TimelineCsvPath(options_.dir));
    CS_CHECK_MSG(timeline_csv_.good(), "cannot open timeline.csv");
    timeline_jsonl_.open(TimelineJsonlPath(options_.dir));
    CS_CHECK_MSG(timeline_jsonl_.good(), "cannot open timeline.jsonl");
    WritePeriodCsvHeader(timeline_csv_);
    timeline_csv_.flush();
  }
  if (options_.server_port >= 0) {
    TelemetryServerOptions server_opts;
    server_opts.port = options_.server_port;
    server_opts.bind_address = options_.server_bind_address;
    server_opts.auth_token = options_.server_auth_token;
    server_opts.client_buffer_bytes = options_.server_client_buffer_bytes;
    server_opts.history_rows = options_.server_history_rows;
    server_opts.sndbuf_bytes = options_.server_sndbuf_bytes;
    server_ = std::make_unique<TelemetryServer>(&metrics_, server_opts);
    server_->Start();
    // The default status already covers trace health; a run can enrich it
    // with SetStatusSource.
    SetStatusSource(nullptr);
    if (options_.on_server_start) options_.on_server_start(server_->port());
  }
  start_wall_ = std::chrono::steady_clock::now();
  if (have_dir) {
    exporter_ = std::thread([this] { ExportLoop(); });
  }
}

Telemetry::~Telemetry() { Stop(); }

TraceBuffer* Telemetry::RegisterThread(const std::string& name) {
  return tracer_ ? tracer_->RegisterThread(name) : nullptr;
}

void Telemetry::PublishTimelineRow(const PeriodRecord& row) {
  const PeriodValues values = ValuesOf(row);
  PeriodJsonBuffer buf;
  std::string json(FormatPeriodJson(values, &buf));
  // Sharded runs decompose the aggregate queue; unsharded rows carry no
  // shard data and keep the historical schema.
  if (!row.shard_q.empty()) {
    json.pop_back();  // the closing brace
    json += ",\"shards\":" + std::to_string(row.shard_q.size()) +
            ",\"shard_q\":[";
    char num[kMaxValueChars + 2];
    for (size_t i = 0; i < row.shard_q.size(); ++i) {
      std::snprintf(num, sizeof(num), i == 0 ? "%.17g" : ",%.17g",
                    row.shard_q[i]);
      json += num;
    }
    json += "]}";
  }
  if (timeline_csv_.is_open()) {
    WritePeriodCsvRow(values, timeline_csv_);
    timeline_csv_.flush();
    timeline_jsonl_ << json << '\n';
    timeline_jsonl_.flush();
  }
  if (server_) server_->PublishTimelineRow(json);
  timeline_rows_.fetch_add(1, std::memory_order_relaxed);
}

void Telemetry::SetStatusSource(std::function<std::string()> app_status) {
  if (server_ == nullptr) return;
  // Installed under the server's callback lock (as SetHealthSource is), so
  // a swap never races a /status request in flight.
  server_->SetStatusCallback([this, app_status = std::move(app_status)] {
    std::ostringstream out;
    out << "{\"trace_events\":" << trace_events()
        << ",\"trace_dropped\":" << trace_dropped()
        << ",\"timeline_rows\":" << timeline_rows() << ",\"run\":"
        << (app_status ? app_status() : std::string("null")) << "}";
    return out.str();
  });
}

void Telemetry::SetHealthSource(std::function<HealthReport()> health) {
  if (server_ == nullptr) return;
  server_->SetHealthCallback([health = std::move(health)] {
    const HealthReport r = health();
    return std::make_pair(r.HttpStatus(), r.ToJson());
  });
}

std::string Telemetry::trace_path() const {
  return (std::filesystem::path(options_.dir) / "trace.json").string();
}

std::string Telemetry::metrics_path() const {
  return (std::filesystem::path(options_.dir) / "metrics.jsonl").string();
}

uint64_t Telemetry::trace_events() const {
  return tracer_ ? tracer_->collected_events() : 0;
}

uint64_t Telemetry::trace_dropped() const {
  return tracer_ ? tracer_->dropped_events() : 0;
}

uint64_t Telemetry::sse_rows_published() const {
  return server_ ? server_->rows_published() : 0;
}

uint64_t Telemetry::sse_rows_dropped() const {
  return server_ ? server_->rows_dropped() : 0;
}

uint64_t Telemetry::sse_clients_accepted() const {
  return server_ ? server_->clients_accepted() : 0;
}

void Telemetry::FlushOnce() {
  if (tracer_) {
    tracer_->Drain();
    // Mirror the tracer's own loss accounting into the registry (Store,
    // not Add: the tracer keeps the cumulative truth).
    trace_events_counter_->Store(tracer_->collected_events());
    trace_dropped_counter_->Store(tracer_->dropped_events());
  }
  if (!metrics_out_.is_open()) return;
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_wall_)
                             .count();
  metrics_.WriteJsonLine(elapsed, metrics_out_);
  metrics_out_.flush();
  if (!metrics_out_.good()) {
    // A full disk or yanked mount must not silently freeze metrics.jsonl:
    // count the failure (visible on /metrics) and keep trying.
    export_failures_counter_->Add();
    metrics_out_.clear();
  }
}

void Telemetry::ExportLoop() {
  using Clock = std::chrono::steady_clock;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.export_period_wall));
  auto deadline = Clock::now() + period;
  while (!stop_.load(std::memory_order_acquire)) {
    const auto now = Clock::now();
    if (now < deadline) {
      const auto remaining = deadline - now;
      std::this_thread::sleep_for(
          remaining < Clock::duration(kMaxSleepChunk)
              ? remaining
              : Clock::duration(kMaxSleepChunk));
      continue;
    }
    FlushOnce();
    deadline += period;
    if (deadline < now) deadline = now + period;
  }
}

void Telemetry::Stop() {
  if (stopped_) return;
  stopped_ = true;
  stop_.store(true, std::memory_order_release);
  if (exporter_.joinable()) exporter_.join();
  FlushOnce();
  metrics_out_.close();
  if (tracer_) {
    std::ofstream trace_out(trace_path());
    CS_CHECK_MSG(trace_out.good(), "cannot open trace.json");
    tracer_->WriteChromeTrace(trace_out);
  }
  // Server last: clients get every row published before Stop, then a
  // bounded drain. Its status callback reads the tracer's final counts.
  if (server_) server_->Stop();
}

}  // namespace ctrlshed
