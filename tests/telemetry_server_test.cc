#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/frame_server.h"
#include "telemetry/prom_export.h"
#include "telemetry/server.h"

namespace ctrlshed {
namespace {

// ---------------------------------------------------------------------------
// Loopback client helpers. Plain blocking sockets with a receive timeout:
// the server under test is nonblocking, the test client does not need to be.

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)))
      << std::strerror(errno);
  return fd;
}

void SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
}

/// One full HTTP exchange: the server closes non-SSE responses after the
/// flush, so reading to EOF yields the complete response.
std::string Fetch(int port, const std::string& request) {
  const int fd = ConnectTo(port);
  SendAll(fd, request);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string Get(int port, const std::string& path) {
  return Fetch(port,
               "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Reads from an open SSE connection until the buffer holds `frames`
/// complete `data: ...\n\n` frames (or the deadline passes).
std::string ReadFrames(int fd, size_t frames, double timeout_s = 5.0) {
  std::string out;
  char buf[4096];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (CountOccurrences(out, "\n\n") < frames &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Prometheus exposition mapping.

TEST(PrometheusName, SanitizesInvalidCharacters) {
  EXPECT_EQ("rt_pump_interval", PrometheusName("rt.pump-interval"));
  EXPECT_EQ("already_fine_09:x", PrometheusName("already_fine_09:x"));
}

TEST(PrometheusName, PrefixesLeadingDigit) {
  EXPECT_EQ("_9lives", PrometheusName("9lives"));
}

TEST(PrometheusName, EmptyBecomesUnderscore) {
  EXPECT_EQ("_", PrometheusName(""));
}

TEST(PrometheusText, CountersGetTotalSuffix) {
  MetricsSnapshot snap;
  snap.counters["rt.offered"] = 42;
  std::ostringstream out;
  WritePrometheusText(snap, out);
  EXPECT_NE(out.str().find("# TYPE rt_offered_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.str().find("rt_offered_total 42\n"), std::string::npos);
}

TEST(PrometheusText, ShardMetricsFoldIntoLabeledFamily) {
  MetricsSnapshot snap;
  snap.gauges["rt.shard0.queue"] = 3.5;
  snap.gauges["rt.shard1.queue"] = 7.0;
  std::ostringstream out;
  WritePrometheusText(snap, out);
  const std::string text = out.str();
  // One family, one # TYPE line, two labeled samples.
  EXPECT_EQ(1u, CountOccurrences(text, "# TYPE rt_shard_queue gauge\n"));
  EXPECT_NE(text.find("rt_shard_queue{shard=\"0\"} 3.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("rt_shard_queue{shard=\"1\"} 7\n"), std::string::npos);
}

TEST(PrometheusText, OperatorCountersFoldIntoLabeledFamily) {
  MetricsSnapshot snap;
  snap.counters["engine.op.filter_a.processed"] = 10;
  snap.counters["engine.op.join.processed"] = 20;
  std::ostringstream out;
  WritePrometheusText(snap, out);
  const std::string text = out.str();
  EXPECT_EQ(1u, CountOccurrences(
                    text, "# TYPE engine_op_processed_total counter\n"));
  EXPECT_NE(text.find("engine_op_processed_total{op=\"filter_a\"} 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("engine_op_processed_total{op=\"join\"} 20\n"),
            std::string::npos);
}

TEST(PrometheusText, HistogramsRenderAsSummaries) {
  MetricsSnapshot snap;
  MetricsSnapshot::HistogramStats h;
  h.count = 4;
  h.sum = 2.0;
  // Exactly representable doubles, so the %.17g output is the short form.
  h.p50 = 0.5;
  h.p95 = 0.75;
  h.p99 = 1.25;
  snap.histograms["rt.pump.interval"] = h;
  std::ostringstream out;
  WritePrometheusText(snap, out);
  const std::string text = out.str();
  EXPECT_EQ(1u, CountOccurrences(text, "# TYPE rt_pump_interval summary\n"));
  EXPECT_NE(text.find("rt_pump_interval{quantile=\"0.5\"} 0.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("rt_pump_interval{quantile=\"0.95\"} 0.75\n"),
            std::string::npos);
  EXPECT_NE(text.find("rt_pump_interval_sum 2\n"), std::string::npos);
  EXPECT_NE(text.find("rt_pump_interval_count 4\n"), std::string::npos);
}

TEST(PrometheusText, ShardHistogramsMergeQuantileIntoLabelSet) {
  // Per-shard histograms must fold into ONE summary family with the
  // quantile label spliced into the shard label set, not N families.
  MetricsSnapshot snap;
  MetricsSnapshot::HistogramStats h0;
  h0.count = 2;
  h0.sum = 1.0;
  h0.p50 = 0.25;
  h0.p95 = 0.5;
  h0.p99 = 0.5;
  MetricsSnapshot::HistogramStats h1;
  h1.count = 6;
  h1.sum = 3.0;
  h1.p50 = 0.125;
  h1.p95 = 0.75;
  h1.p99 = 1.5;
  snap.histograms["rt.shard0.pump_interval_s"] = h0;
  snap.histograms["rt.shard1.pump_interval_s"] = h1;
  std::ostringstream out;
  WritePrometheusText(snap, out);
  const std::string text = out.str();

  EXPECT_EQ(1u, CountOccurrences(
                    text, "# TYPE rt_shard_pump_interval_s summary\n"));
  EXPECT_NE(
      text.find("rt_shard_pump_interval_s{shard=\"0\",quantile=\"0.5\"} 0.25\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("rt_shard_pump_interval_s{shard=\"1\",quantile=\"0.99\"} 1.5\n"),
      std::string::npos);
  EXPECT_NE(text.find("rt_shard_pump_interval_s_sum{shard=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rt_shard_pump_interval_s_count{shard=\"1\"} 6\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Live server endpoints.

TEST(TelemetryServer, BindsEphemeralPort) {
  MetricsRegistry registry;
  TelemetryServer server(&registry, {});
  server.Start();
  EXPECT_GT(server.port(), 0);
  server.Stop();
}

TEST(TelemetryServer, MetricsEndpointServesRegistry) {
  MetricsRegistry registry;
  registry.GetGauge("rt.shard0.queue")->Set(12.0);
  registry.GetCounter("rt.offered")->Add(99);
  TelemetryServer server(&registry, {});
  server.Start();
  const std::string response = Get(server.port(), "/metrics");
  server.Stop();
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("# TYPE rt_shard_queue gauge"), std::string::npos);
  EXPECT_NE(response.find("rt_shard_queue{shard=\"0\"} 12"),
            std::string::npos);
  EXPECT_NE(response.find("rt_offered_total 99"), std::string::npos);
}

TEST(TelemetryServer, StatusMergesAppCallback) {
  MetricsRegistry registry;
  TelemetryServer server(&registry, {});
  server.SetStatusCallback([] { return std::string("{\"mode\":\"test\"}"); });
  server.Start();
  const std::string response = Get(server.port(), "/status");
  server.Stop();
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"sse\":"), std::string::npos);
  EXPECT_NE(response.find("\"app\":{\"mode\":\"test\"}"), std::string::npos);
}

TEST(TelemetryServer, DashboardAndErrorRoutes) {
  MetricsRegistry registry;
  TelemetryServer server(&registry, {});
  server.Start();
  const std::string root = Get(server.port(), "/");
  const std::string missing = Get(server.port(), "/nope");
  const std::string post = Fetch(
      server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  server.Stop();
  EXPECT_NE(root.find("text/html"), std::string::npos);
  EXPECT_NE(root.find("EventSource"), std::string::npos);
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_NE(post.find("405"), std::string::npos);
}

TEST(TelemetryServer, SseReplaysHistoryThenStreamsLive) {
  MetricsRegistry registry;
  TelemetryServer server(&registry, {});
  server.Start();
  server.PublishTimelineRow("{\"k\":1}");
  server.PublishTimelineRow("{\"k\":2}");

  const int fd = ConnectTo(server.port());
  SendAll(fd, "GET /timeline HTTP/1.1\r\nHost: x\r\n\r\n");
  const std::string replay = ReadFrames(fd, 2);
  EXPECT_NE(replay.find("text/event-stream"), std::string::npos);
  EXPECT_NE(replay.find("data: {\"k\":1}\n\n"), std::string::npos);
  EXPECT_NE(replay.find("data: {\"k\":2}\n\n"), std::string::npos);

  server.PublishTimelineRow("{\"k\":3}");
  const std::string live = ReadFrames(fd, 1);
  EXPECT_NE(live.find("data: {\"k\":3}\n\n"), std::string::npos);

  ::close(fd);
  server.Stop();
  EXPECT_EQ(3u, server.rows_published());
  EXPECT_EQ(0u, server.rows_dropped());
  EXPECT_EQ(1u, server.clients_accepted());
}

TEST(TelemetryServer, HistoryIsBounded) {
  MetricsRegistry registry;
  TelemetryServerOptions options;
  options.history_rows = 2;
  TelemetryServer server(&registry, options);
  server.Start();
  server.PublishTimelineRow("{\"k\":1}");
  server.PublishTimelineRow("{\"k\":2}");
  server.PublishTimelineRow("{\"k\":3}");

  const int fd = ConnectTo(server.port());
  SendAll(fd, "GET /timeline HTTP/1.1\r\nHost: x\r\n\r\n");
  const std::string replay = ReadFrames(fd, 2);
  ::close(fd);
  server.Stop();
  EXPECT_EQ(replay.find("data: {\"k\":1}\n\n"), std::string::npos);
  EXPECT_NE(replay.find("data: {\"k\":2}\n\n"), std::string::npos);
  EXPECT_NE(replay.find("data: {\"k\":3}\n\n"), std::string::npos);
}

TEST(TelemetryServer, SlowClientDropsRowsWithoutBlockingPublisher) {
  MetricsRegistry registry;
  TelemetryServerOptions options;
  options.client_buffer_bytes = 4096;  // tiny pending-write cap
  options.sndbuf_bytes = 4096;         // tiny kernel buffer too
  TelemetryServer server(&registry, options);
  server.Start();

  // Subscribe, read just the SSE response headers, then stop reading: the
  // kernel buffer and the 4 KiB server-side buffer fill, after which every
  // publish must drop for this client instead of blocking.
  const int fd = ConnectTo(server.port());
  SendAll(fd, "GET /timeline HTTP/1.1\r\nHost: x\r\n\r\n");
  char buf[512];
  ASSERT_GT(::recv(fd, buf, sizeof(buf), 0), 0);

  const std::string fat_row = "{\"pad\":\"" + std::string(512, 'x') + "\"}";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.rows_dropped() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    server.PublishTimelineRow(fat_row);
  }
  EXPECT_GT(server.rows_dropped(), 0u);

  // The publisher stayed responsive; the metrics endpoint exposes the
  // drop counter the publisher just bumped.
  const std::string metrics = Get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("telemetry_sse_rows_dropped_total"),
            std::string::npos);

  ::close(fd);
  server.Stop();
}

TEST(TelemetryServer, SlowHandlerDoesNotStallPublisher) {
  // The publisher never waits on a handler: a /status callback that takes
  // 500 ms must not hold up PublishTimelineRow, and the row still reaches
  // the subscriber once the serve thread is free again.
  MetricsRegistry registry;
  TelemetryServer server(&registry, {});
  std::atomic<bool> in_handler{false};
  server.SetStatusCallback([&in_handler] {
    in_handler.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    return std::string("{}");
  });
  server.Start();

  const int sub = ConnectTo(server.port());
  SendAll(sub, "GET /timeline HTTP/1.1\r\nHost: x\r\n\r\n");
  char buf[512];
  ASSERT_GT(::recv(sub, buf, sizeof(buf), 0), 0);  // subscribed

  std::string status;
  std::thread scraper([&] { status = Get(server.port(), "/status"); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!in_handler.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(in_handler.load());

  const auto t0 = std::chrono::steady_clock::now();
  server.PublishTimelineRow("{\"k\":1}");
  const double publish_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  EXPECT_LT(publish_s, 0.1);

  const std::string live = ReadFrames(sub, 1);
  EXPECT_NE(live.find("data: {\"k\":1}\n\n"), std::string::npos);
  scraper.join();
  EXPECT_NE(status.find("200 OK"), std::string::npos);
  ::close(sub);
  server.Stop();
}

TEST(TelemetryServer, OversizedRequestHeadGets431) {
  MetricsRegistry registry;
  TelemetryServer server(&registry, {});
  server.Start();
  const std::string response = Fetch(
      server.port(), "GET / HTTP/1.1\r\nX-Pad: " + std::string(9000, 'a'));
  server.Stop();
  EXPECT_NE(response.find("431"), std::string::npos) << response;
}

// ---------------------------------------------------------------------------
// Limits the shared reactor enforces on every listening port.

enum class PortKind { kFrame, kTelemetry };

class ClientCapTest : public ::testing::TestWithParam<PortKind> {};

TEST_P(ClientCapTest, ConnectionPastMaxClientsIsClosedAtOnce) {
  constexpr int kCap = 2;
  FrameServerOptions frame_opts;
  frame_opts.max_clients = kCap;
  TelemetryServerOptions http_opts;
  http_opts.max_clients = kCap;
  MetricsRegistry registry;
  FrameServer frames(frame_opts);
  TelemetryServer http(&registry, http_opts);
  const bool frame = GetParam() == PortKind::kFrame;
  if (frame) {
    frames.Start();
  } else {
    http.Start();
  }
  const int port = frame ? frames.port() : http.port();
  const std::function<uint64_t()> accepted = [&] {
    return frame ? frames.connections_accepted() : http.clients_accepted();
  };

  std::vector<int> held;
  for (int i = 0; i < kCap; ++i) held.push_back(ConnectTo(port));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (accepted() < kCap && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(accepted(), static_cast<uint64_t>(kCap));

  // The next peer is accepted and closed before it says anything: EOF, not
  // the 5 s receive timeout.
  const int extra = ConnectTo(port);
  const auto t0 = std::chrono::steady_clock::now();
  char buf[16];
  EXPECT_EQ(::recv(extra, buf, sizeof(buf), 0), 0);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            2.0);
  EXPECT_EQ(accepted(), static_cast<uint64_t>(kCap));
  // The capped peers stay connected.
  for (int fd : held) {
    EXPECT_EQ(::recv(fd, buf, sizeof(buf), MSG_DONTWAIT), -1);
    EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
  }

  ::close(extra);
  for (int fd : held) ::close(fd);
  frames.Stop();
  http.Stop();
}

INSTANTIATE_TEST_SUITE_P(ListeningPort, ClientCapTest,
                         ::testing::Values(PortKind::kFrame,
                                           PortKind::kTelemetry),
                         [](const ::testing::TestParamInfo<PortKind>& info) {
                           return info.param == PortKind::kFrame
                                      ? "FrameServer"
                                      : "TelemetryServer";
                         });

// ---------------------------------------------------------------------------
// Hardened deployment: auth token, non-loopback refusal, /fleet.

TEST(TelemetryServer, TokenGatesEveryRoute) {
  MetricsRegistry registry;
  TelemetryServerOptions options;
  options.auth_token = "s3cret";
  TelemetryServer server(&registry, options);
  server.Start();
  const int port = server.port();

  // No credentials -> 401 (and no registry content leaks).
  const std::string denied = Get(port, "/metrics");
  EXPECT_NE(denied.find("401"), std::string::npos);
  EXPECT_EQ(denied.find("# TYPE"), std::string::npos);

  // Wrong token -> 401.
  const std::string wrong =
      Fetch(port,
            "GET /metrics HTTP/1.1\r\nHost: x\r\n"
            "Authorization: Bearer nope\r\n\r\n");
  EXPECT_NE(wrong.find("401"), std::string::npos);

  // Bearer header -> 200.
  const std::string bearer =
      Fetch(port,
            "GET /metrics HTTP/1.1\r\nHost: x\r\n"
            "Authorization: Bearer s3cret\r\n\r\n");
  EXPECT_NE(bearer.find("200"), std::string::npos);

  // Query token (what EventSource/the dashboard must use) -> 200.
  const std::string query = Get(port, "/status?token=s3cret");
  EXPECT_NE(query.find("200"), std::string::npos);

  server.Stop();
}

TEST(TelemetryServerDeathTest, NonLoopbackBindWithoutTokenRefused) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricsRegistry registry;
  TelemetryServerOptions options;
  options.bind_address = "0.0.0.0";
  EXPECT_DEATH(
      {
        TelemetryServer server(&registry, options);
        server.Start();
      },
      "auth token");
}

TEST(TelemetryServer, FleetRouteServesCallbackOrEmptyDefault) {
  MetricsRegistry registry;
  TelemetryServer server(&registry, {});
  server.Start();
  const std::string empty = Get(server.port(), "/fleet");
  EXPECT_NE(empty.find("200"), std::string::npos);
  EXPECT_NE(empty.find("application/json"), std::string::npos);
  EXPECT_NE(empty.find("{\"nodes\":[]}"), std::string::npos);

  server.SetFleetCallback(
      [] { return std::string("{\"nodes\":[{\"id\":0}]}"); });
  const std::string live = Get(server.port(), "/fleet");
  EXPECT_NE(live.find("{\"nodes\":[{\"id\":0}]}"), std::string::npos);
  server.Stop();
}

TEST(TelemetryServer, StopIsIdempotentAndRestartUnsupportedPathsSafe) {
  MetricsRegistry registry;
  TelemetryServer server(&registry, {});
  server.Start();
  server.PublishTimelineRow("{\"k\":1}");
  server.Stop();
  server.Stop();  // second stop is a no-op
  // Publishing after stop must not crash (rows go to history only).
  server.PublishTimelineRow("{\"k\":2}");
}

}  // namespace
}  // namespace ctrlshed
