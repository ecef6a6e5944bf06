// In-process end-to-end tests of the socket cluster runtime: a real
// controller, real nodes, and real feeders wired over loopback TCP inside
// one test binary. Time-compressed so each scenario costs well under a
// second of wall time. Also the ingress-hardening regression (a malformed
// producer is counted, never fatal), the ingress wake counter and the
// /status cluster block.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cluster/controller_runner.h"
#include "cluster/feeder.h"
#include "cluster/node_runner.h"
#include "net/frame.h"

namespace ctrlshed {
namespace {

constexpr double kCompression = 20.0;

ExperimentConfig ControlBase(double duration) {
  ExperimentConfig base;
  base.method = Method::kCtrl;
  base.duration = duration;
  base.period = 1.0;
  base.target_delay = 2.0;
  return base;
}

/// Workload config for one feeder: web trace at ~2x one worker's capacity.
ExperimentConfig FeedBase(double duration, uint64_t seed) {
  ExperimentConfig base = ControlBase(duration);
  base.workload = WorkloadKind::kWeb;
  base.web.mean_rate = 380.0;
  base.seed = seed;
  return base;
}

int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(0,
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)))
      << std::strerror(errno);
  return fd;
}

std::string HttpGet(int port, const std::string& path) {
  const int fd = RawConnect(port);
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
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

TEST(ClusterRuntimeTest, TwoNodesOneControllerEndToEnd) {
  const double duration = 6.0;

  std::promise<int> ctl_port_promise;
  auto ctl_port_future = ctl_port_promise.get_future();
  ClusterControllerResult ctl_result;
  std::thread ctl_thread([&] {
    ClusterControllerConfig config;
    config.base = ControlBase(duration);
    config.port = 0;
    config.min_nodes = 2;
    config.min_nodes_timeout_wall = 10.0;
    config.time_compression = kCompression;
    config.on_ready = [&ctl_port_promise](int port) {
      ctl_port_promise.set_value(port);
    };
    ctl_result = RunClusterController(config);
  });
  const int ctl_port = ctl_port_future.get();
  ASSERT_GT(ctl_port, 0);

  std::promise<int> node_port_promise[2];
  ClusterNodeResult node_result[2];
  std::vector<std::thread> node_threads;
  for (uint32_t id = 0; id < 2; ++id) {
    node_threads.emplace_back([&, id] {
      ClusterNodeConfig config;
      config.base = ControlBase(duration);
      config.node_id = id;
      config.workers = 1;
      config.ingress_port = 0;
      config.controller_port = ctl_port;
      config.time_compression = kCompression;
      config.on_ready = [&, id](int port) {
        node_port_promise[id].set_value(port);
      };
      node_result[id] = RunClusterNode(config);
    });
  }
  const int ingress0 = node_port_promise[0].get_future().get();
  const int ingress1 = node_port_promise[1].get_future().get();

  ClusterFeedResult feed_result[2];
  std::vector<std::thread> feed_threads;
  for (int i = 0; i < 2; ++i) {
    feed_threads.emplace_back([&, i] {
      ClusterFeedConfig config;
      config.base = FeedBase(duration, /*seed=*/42 + static_cast<uint64_t>(i));
      config.port = i == 0 ? ingress0 : ingress1;
      config.source_id = static_cast<uint32_t>(i);
      config.time_compression = kCompression;
      feed_result[i] = RunClusterFeeder(config);
    });
  }

  for (auto& t : feed_threads) t.join();
  for (auto& t : node_threads) t.join();
  ctl_thread.join();

  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_TRUE(feed_result[i].connected);
    EXPECT_GT(feed_result[i].tuples_sent, 0u);
    EXPECT_TRUE(node_result[i].controller_connected);
    EXPECT_GT(node_result[i].offered, 0u);
    EXPECT_GT(node_result[i].departed, 0u);
    EXPECT_GT(node_result[i].reports_sent, 0u);
    EXPECT_GT(node_result[i].actuations_applied, 0u);
    EXPECT_EQ(node_result[i].ingress_rejected, 0u);
    EXPECT_EQ(node_result[i].corrupt_streams, 0u);
    EXPECT_EQ(node_result[i].control_rejected, 0u);
    EXPECT_FALSE(node_result[i].interrupted);
  }
  EXPECT_EQ(ctl_result.nodes_seen, 2);
  EXPECT_EQ(ctl_result.final_active, 2);
  EXPECT_EQ(ctl_result.total_workers, 2);
  EXPECT_GE(ctl_result.hellos, 2u);
  EXPECT_GT(ctl_result.reports, 0u);
  EXPECT_GT(ctl_result.acks, 0u);
  EXPECT_EQ(ctl_result.rejected, 0u);
  EXPECT_EQ(ctl_result.corrupt_streams, 0u);
  EXPECT_FALSE(ctl_result.recorder.empty());
}

TEST(ClusterRuntimeTest, MalformedProducerIsCountedNotFatal) {
  const double duration = 4.0;
  std::promise<int> port_promise;
  ClusterNodeResult result;
  std::thread node_thread([&] {
    ClusterNodeConfig config;
    config.base = ControlBase(duration);
    config.node_id = 9;
    config.workers = 1;
    config.controller_port = 0;        // no controller: local-shedding mode
    config.connect_timeout_wall = 0.1;
    config.time_compression = kCompression;
    config.on_ready = [&port_promise](int port) {
      port_promise.set_value(port);
    };
    result = RunClusterNode(config);
  });
  const int ingress = port_promise.get_future().get();
  ASSERT_GT(ingress, 0);

  // (a) A well-formed frame whose payload fails the hardened decode: a
  // tuple with a NaN arrival_time. Counted as an ingress reject; the
  // connection stays up.
  Tuple bad;
  bad.arrival_time = std::numeric_limits<double>::quiet_NaN();
  std::string wire = EncodeTupleBatchFrame(0, &bad, 1);
  // (b) A control-plane frame type on the tuple port: also a reject.
  AppendFrame(FrameType::kHello, "", &wire);
  // (c) A valid batch AFTER the malformed ones, proving the stream
  // survives payload-level rejects.
  Tuple good;
  good.arrival_time = 0.5;
  good.value = 0.5;
  wire += EncodeTupleBatchFrame(0, &good, 1);
  const int fd = RawConnect(ingress);
  ASSERT_EQ(static_cast<ssize_t>(wire.size()),
            ::send(fd, wire.data(), wire.size(), 0));

  // (d) Framing garbage on a second connection: the stream is dropped and
  // counted as corrupt.
  const int fd2 = RawConnect(ingress);
  const std::string garbage(64, '\xff');
  ASSERT_EQ(static_cast<ssize_t>(garbage.size()),
            ::send(fd2, garbage.data(), garbage.size(), 0));

  node_thread.join();
  ::close(fd);
  ::close(fd2);

  EXPECT_FALSE(result.controller_connected);
  EXPECT_EQ(result.ingress_rejected, 2u);  // NaN payload + wrong type
  EXPECT_EQ(result.corrupt_streams, 1u);
  EXPECT_EQ(result.offered, 1u);  // the good tuple made it through
  EXPECT_FALSE(result.interrupted);
}

// The wire source id is an unsigned 32-bit field. Ids at and above 2^31
// must route to a shard like any other; read as a signed int they would
// index a negative shard of a 2-worker node.
TEST(ClusterRuntimeTest, WireSourcesAbove2To31RouteToAShard) {
  const double duration = 4.0;
  std::promise<int> port_promise;
  ClusterNodeResult result;
  std::thread node_thread([&] {
    ClusterNodeConfig config;
    config.base = ControlBase(duration);
    config.node_id = 4;
    config.workers = 2;
    config.controller_port = 0;  // no controller: local-shedding mode
    config.connect_timeout_wall = 0.1;
    config.time_compression = kCompression;
    config.on_ready = [&port_promise](int port) {
      port_promise.set_value(port);
    };
    result = RunClusterNode(config);
  });
  const int ingress = port_promise.get_future().get();
  ASSERT_GT(ingress, 0);

  std::string wire;
  for (const uint32_t source : {0x80000001u, 0xFFFFFFFFu, 3u}) {
    Tuple t;
    t.arrival_time = 0.5;
    t.value = 0.5;
    wire += EncodeTupleBatchFrame(source, &t, 1);
  }
  const int fd = RawConnect(ingress);
  ASSERT_EQ(static_cast<ssize_t>(wire.size()),
            ::send(fd, wire.data(), wire.size(), 0));

  node_thread.join();
  ::close(fd);

  EXPECT_EQ(result.offered, 3u);
  EXPECT_EQ(result.ingress_rejected, 0u);
  EXPECT_EQ(result.corrupt_streams, 0u);
  EXPECT_FALSE(result.interrupted);
}

// The ingress reactor counts its wakes (polls that delivered frames): the
// node reports them in its result and serves them as
// net_ingress_wakeups_total.
TEST(ClusterRuntimeTest, NodeCountsIngressWakeups) {
  const double duration = 40.0;  // 2 s of wall time at kCompression
  std::promise<int> port_promise;
  std::promise<int> http_port_promise;
  ClusterNodeResult result;
  std::thread node_thread([&] {
    ClusterNodeConfig config;
    config.base = ControlBase(duration);
    config.base.telemetry.dir = ::testing::TempDir() + "cluster_wake_node";
    config.base.telemetry.trace = false;
    config.base.telemetry.server_port = 0;
    config.base.telemetry.on_server_start = [&http_port_promise](int port) {
      http_port_promise.set_value(port);
    };
    config.node_id = 6;
    config.workers = 1;
    config.controller_port = 0;  // no controller: local-shedding mode
    config.connect_timeout_wall = 0.1;
    config.time_compression = kCompression;
    config.on_ready = [&port_promise](int port) {
      port_promise.set_value(port);
    };
    result = RunClusterNode(config);
  });
  const int http_port = http_port_promise.get_future().get();
  const int ingress = port_promise.get_future().get();

  std::string wire;
  for (int i = 0; i < 4; ++i) {
    Tuple t;
    t.arrival_time = 0.5;
    t.value = 0.5;
    wire += EncodeTupleBatchFrame(0, &t, 1);
  }
  const int fd = RawConnect(ingress);
  ASSERT_EQ(static_cast<ssize_t>(wire.size()),
            ::send(fd, wire.data(), wire.size(), 0));

  // The counter mirrors the server's count once per period; poll a scrape.
  const std::string series = "\nnet_ingress_wakeups_total ";
  std::string metrics;
  uint64_t scraped = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (scraped == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    metrics = HttpGet(http_port, "/metrics");
    const size_t at = metrics.find(series);
    if (at != std::string::npos) {
      scraped = std::strtoull(metrics.c_str() + at + series.size(), nullptr,
                              10);
    }
  }
  EXPECT_GE(scraped, 1u) << metrics;
  EXPECT_NE(metrics.find("# TYPE net_ingress_wakeups_total counter"),
            std::string::npos);

  node_thread.join();
  ::close(fd);
  EXPECT_EQ(result.ingress_frames, 4u);
  EXPECT_EQ(result.offered, 4u);
  EXPECT_GE(result.ingress_wakeups, 1u);
  EXPECT_LE(result.ingress_wakeups, result.ingress_frames);
  EXPECT_GE(result.ingress_wakeups, scraped);
}

TEST(ClusterRuntimeTest, ControllerStatusExposesClusterBlock) {
  const double duration = 8.0;
  std::promise<int> ctl_port_promise;
  std::promise<int> http_port_promise;
  ClusterControllerResult ctl_result;
  std::thread ctl_thread([&] {
    ClusterControllerConfig config;
    config.base = ControlBase(duration);
    config.base.telemetry.dir = ::testing::TempDir() + "cluster_status_test";
    config.base.telemetry.trace = false;
    config.base.telemetry.server_port = 0;
    config.base.telemetry.on_server_start = [&http_port_promise](int port) {
      http_port_promise.set_value(port);
    };
    config.time_compression = kCompression;
    config.on_ready = [&ctl_port_promise](int port) {
      ctl_port_promise.set_value(port);
    };
    ctl_result = RunClusterController(config);
  });
  const int ctl_port = ctl_port_promise.get_future().get();
  const int http_port = http_port_promise.get_future().get();

  std::promise<int> node_port_promise;
  ClusterNodeResult node_result;
  std::thread node_thread([&] {
    ClusterNodeConfig config;
    config.base = ControlBase(duration);
    config.node_id = 3;
    config.workers = 2;
    config.controller_port = ctl_port;
    config.time_compression = kCompression;
    config.on_ready = [&node_port_promise](int port) {
      node_port_promise.set_value(port);
    };
    node_result = RunClusterNode(config);
  });
  node_port_promise.get_future().get();

  // Poll /status until the controller has seen the node's first report.
  std::string status;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    status = HttpGet(http_port, "/status");
    if (status.find("\"id\":3") != std::string::npos &&
        status.find("\"active\":true") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(status.find("\"mode\":\"cluster\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"role\":\"controller\""), std::string::npos);
  EXPECT_NE(status.find("\"nodes\":1"), std::string::npos);
  EXPECT_NE(status.find("\"id\":3"), std::string::npos);
  EXPECT_NE(status.find("\"workers\":2"), std::string::npos);
  EXPECT_NE(status.find("\"last_report_age_s\""), std::string::npos);

  node_thread.join();
  ctl_thread.join();
  EXPECT_EQ(ctl_result.nodes_seen, 1);
  EXPECT_GT(ctl_result.reports, 0u);
}

TEST(ClusterRuntimeTest, ControllerFederatesNodeMetricsAndServesFleet) {
  const double duration = 8.0;
  std::promise<int> ctl_port_promise;
  std::promise<int> http_port_promise;
  ClusterControllerResult ctl_result;
  std::thread ctl_thread([&] {
    ClusterControllerConfig config;
    config.base = ControlBase(duration);
    config.base.telemetry.dir = ::testing::TempDir() + "cluster_fed_ctl";
    config.base.telemetry.trace = false;
    config.base.telemetry.server_port = 0;
    config.base.telemetry.on_server_start = [&http_port_promise](int port) {
      http_port_promise.set_value(port);
    };
    config.time_compression = kCompression;
    config.on_ready = [&ctl_port_promise](int port) {
      ctl_port_promise.set_value(port);
    };
    ctl_result = RunClusterController(config);
  });
  const int ctl_port = ctl_port_promise.get_future().get();
  const int http_port = http_port_promise.get_future().get();

  // The node runs with its own telemetry registry (no server) so each
  // kStatsReport carries a piggybacked snapshot of its real rt metrics.
  std::promise<int> node_port_promise;
  ClusterNodeResult node_result;
  std::thread node_thread([&] {
    ClusterNodeConfig config;
    config.base = ControlBase(duration);
    config.base.telemetry.dir = ::testing::TempDir() + "cluster_fed_node";
    config.base.telemetry.trace = false;
    config.node_id = 5;
    config.workers = 1;
    config.controller_port = ctl_port;
    config.time_compression = kCompression;
    config.on_ready = [&node_port_promise](int port) {
      node_port_promise.set_value(port);
    };
    node_result = RunClusterNode(config);
  });
  node_port_promise.get_future().get();

  // One controller scrape exposes the node's series under node="5", and
  // /fleet reports the node fresh. Poll: the first report may not have
  // landed yet.
  std::string metrics;
  std::string fleet;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    metrics = HttpGet(http_port, "/metrics");
    fleet = HttpGet(http_port, "/fleet");
    if (metrics.find("node=\"5\"") != std::string::npos &&
        fleet.find("\"fresh\":true") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(metrics.find("node=\"5\""), std::string::npos) << metrics;
  EXPECT_NE(fleet.find("\"id\":5"), std::string::npos) << fleet;
  EXPECT_NE(fleet.find("\"fresh\":true"), std::string::npos) << fleet;
  EXPECT_NE(fleet.find("\"alpha\""), std::string::npos) << fleet;

  node_thread.join();
  ctl_thread.join();
  EXPECT_GT(ctl_result.reports, 0u);
  EXPECT_GT(node_result.reports_sent, 0u);
  EXPECT_EQ(node_result.control_rejected, 0u);  // HelloAck is not a reject
}

}  // namespace
}  // namespace ctrlshed
