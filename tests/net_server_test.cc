// Loopback tests of the poll()-based FrameServer and the blocking
// FrameClient: frame delivery both ways, corrupt-stream disconnection,
// read pacing (coalesced wakes, an idle server reading at once, Stop()
// delivering what a paced server had not read yet), and the SIGPIPE
// regressions — a peer that vanishes mid-write must surface as a failed
// send, never as a fatal signal.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/frame_client.h"
#include "net/frame_server.h"
#include "net/socket_util.h"

namespace ctrlshed {
namespace {

/// Polls `pred` until it holds or the deadline passes.
bool WaitFor(const std::function<bool()>& pred, double timeout_s = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
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

/// Frames collected by a server/client handler, cross-thread.
struct FrameLog {
  std::mutex mu;
  std::vector<Frame> frames;
  std::vector<uint64_t> conns;

  void Add(uint64_t conn_id, const Frame& f) {
    std::lock_guard<std::mutex> lock(mu);
    frames.push_back(f);
    conns.push_back(conn_id);
  }
  size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return frames.size();
  }
};

TEST(FrameServerTest, DeliversClientFrames) {
  FrameLog log;
  FrameServer server(FrameServerOptions{});
  server.OnFrame([&log](uint64_t id, const Frame& f) { log.Add(id, f); });
  server.Start();

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  std::string wire;
  AppendFrame(FrameType::kHello, "one", &wire);
  ASSERT_TRUE(client.Send(wire));
  wire.clear();
  AppendFrame(FrameType::kStatsReport, "two", &wire);
  ASSERT_TRUE(client.Send(wire));

  ASSERT_TRUE(WaitFor([&] { return log.size() == 2; }));
  {
    std::lock_guard<std::mutex> lock(log.mu);
    EXPECT_EQ(log.frames[0].type, FrameType::kHello);
    EXPECT_EQ(log.frames[0].payload, "one");
    EXPECT_EQ(log.frames[1].type, FrameType::kStatsReport);
    EXPECT_EQ(log.frames[1].payload, "two");
    EXPECT_EQ(log.conns[0], log.conns[1]);
  }
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.frames_received(), 2u);

  client.Close();
  server.Stop();
}

TEST(FrameServerTest, SendsFramesBackToClient) {
  // The node's control channel in miniature: the client announces itself,
  // the server replies on the same connection — from inside the frame
  // handler, which must therefore not deadlock against the serve thread.
  FrameServer server(FrameServerOptions{});
  server.OnFrame([&server](uint64_t id, const Frame&) {
    std::string wire;
    AppendFrame(FrameType::kActuation, "cmd", &wire);
    server.Send(id, wire);
  });
  server.Start();

  FrameLog log;
  FrameClient client;
  client.OnFrame([&log](const Frame& f) { log.Add(0, f); });
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  std::string wire;
  AppendFrame(FrameType::kHello, "", &wire);
  ASSERT_TRUE(client.Send(wire));

  ASSERT_TRUE(WaitFor([&] { return log.size() == 1; }));
  {
    std::lock_guard<std::mutex> lock(log.mu);
    EXPECT_EQ(log.frames[0].type, FrameType::kActuation);
    EXPECT_EQ(log.frames[0].payload, "cmd");
  }

  client.Close();
  server.Stop();
}

TEST(FrameServerTest, CorruptStreamIsDroppedAndCounted) {
  std::atomic<int> disconnects{0};
  FrameServer server(FrameServerOptions{});
  server.OnFrame([](uint64_t, const Frame&) {});
  server.OnDisconnect([&disconnects](uint64_t) { ++disconnects; });
  server.Start();

  const int fd = RawConnect(server.port());
  const std::string garbage = "GET /metrics HTTP/1.1\r\n\r\n";
  ASSERT_EQ(static_cast<ssize_t>(garbage.size()),
            ::send(fd, garbage.data(), garbage.size(), 0));

  // The server hangs up on us once the magic check fails.
  ASSERT_TRUE(WaitFor([&] { return server.corrupt_streams() == 1; }));
  ASSERT_TRUE(WaitFor([&] { return disconnects.load() == 1; }));
  char buf[16];
  EXPECT_TRUE(WaitFor([&] { return ::recv(fd, buf, sizeof(buf), 0) == 0; }));
  ::close(fd);

  // A well-behaved client still gets service afterwards.
  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  std::string wire;
  AppendFrame(FrameType::kAck, "", &wire);
  EXPECT_TRUE(client.Send(wire));
  ASSERT_TRUE(WaitFor([&] { return server.frames_received() == 1; }));

  client.Close();
  server.Stop();
}

TEST(FrameServerTest, SendToUnknownConnectionFails) {
  FrameServer server(FrameServerOptions{});
  server.OnFrame([](uint64_t, const Frame&) {});
  server.Start();
  std::string wire;
  AppendFrame(FrameType::kAck, "", &wire);
  EXPECT_FALSE(server.Send(12345, wire));
  server.Stop();
}

// --- Read pacing -----------------------------------------------------------

void SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
}

std::string NumberedFrame(int i) {
  std::string wire;
  AppendFrame(FrameType::kStatsReport, std::to_string(i), &wire);
  return wire;
}

void ExpectNumberedInOrder(FrameLog* log, int n) {
  std::lock_guard<std::mutex> lock(log->mu);
  ASSERT_EQ(log->frames.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(log->frames[static_cast<size_t>(i)].payload, std::to_string(i));
  }
}

TEST(FrameServerTest, PacedServerCoalescesWakes) {
  // 200 frames spread over ~100 ms against a 50 ms read interval: the
  // server reads a few times, not once per frame, and loses nothing.
  FrameLog log;
  FrameServerOptions opts;
  opts.read_interval_wall = 0.05;
  FrameServer server(opts);
  server.OnFrame([&log](uint64_t id, const Frame& f) { log.Add(id, f); });
  server.Start();

  const int fd = RawConnect(server.port());
  for (int i = 0; i < 200; ++i) {
    SendAll(fd, NumberedFrame(i));
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ASSERT_TRUE(WaitFor([&] { return log.size() == 200; }));
  ExpectNumberedInOrder(&log, 200);
  EXPECT_GE(server.wakeups(), 1u);
  EXPECT_LE(server.wakeups(), 10u);

  ::close(fd);
  server.Stop();
}

TEST(FrameServerTest, IdlePacedServerReadsAtOnce) {
  // Pacing follows only a wake that delivered frames. A quiet server
  // blocks in poll(), so a frame after an idle gap arrives at once rather
  // than up to an interval later.
  FrameLog log;
  FrameServerOptions opts;
  opts.read_interval_wall = 1.0;
  FrameServer server(opts);
  server.OnFrame([&log](uint64_t id, const Frame& f) { log.Add(id, f); });
  server.Start();

  const int fd = RawConnect(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  SendAll(fd, NumberedFrame(0));
  ASSERT_TRUE(WaitFor([&] { return log.size() == 1; }, 0.5));
  // Past the paced wait that frame started, the server is idle again.
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  SendAll(fd, NumberedFrame(1));
  EXPECT_TRUE(WaitFor([&] { return log.size() == 2; }, 0.5));
  EXPECT_EQ(server.wakeups(), 2u);

  ::close(fd);
  server.Stop();
}

TEST(FrameServerTest, StopDeliversFramesBufferedWhilePaced) {
  // Frames sent while a paced server waits out its interval sit unread in
  // the socket. Stop() must read and deliver them before the serve thread
  // exits, not close them away with the connection.
  FrameLog log;
  FrameServerOptions opts;
  opts.read_interval_wall = 0.3;
  FrameServer server(opts);
  server.OnFrame([&log](uint64_t id, const Frame& f) { log.Add(id, f); });
  server.Start();

  const int fd = RawConnect(server.port());
  SendAll(fd, NumberedFrame(0));
  ASSERT_TRUE(WaitFor([&] { return log.size() == 1; }));
  std::string rest;
  for (int i = 1; i < 10; ++i) rest += NumberedFrame(i);
  SendAll(fd, rest);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Stop();

  ExpectNumberedInOrder(&log, 10);
  EXPECT_EQ(server.frames_received(), 10u);
  ::close(fd);
}

TEST(FrameServerTest, PeerThatStopsReadingIsDroppedPastOutBufferCap) {
  // A peer that never reads lets its pending output grow; past
  // max_out_buffer the server cuts it loose, and Send fails from then on.
  std::atomic<uint64_t> conn{0};
  std::atomic<uint64_t> disconnected{0};
  FrameServerOptions opts;
  opts.max_out_buffer = 64 << 10;
  FrameServer server(opts);
  server.OnFrame([&conn](uint64_t id, const Frame&) { conn.store(id); });
  server.OnDisconnect([&disconnected](uint64_t id) { disconnected.store(id); });
  server.Start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;  // keep the kernel from absorbing megabytes
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)))
      << std::strerror(errno);
  std::string hello;
  AppendFrame(FrameType::kHello, "", &hello);
  SendAll(fd, hello);
  ASSERT_TRUE(WaitFor([&] { return conn.load() != 0; }));
  const uint64_t id = conn.load();

  std::string chunk;
  AppendFrame(FrameType::kActuation, std::string(16 << 10, 'x'), &chunk);
  // 1000 x 16 KiB is far more than the kernel buffers plus the cap hold.
  int sent = 0;
  while (sent < 1000 && server.Send(id, chunk)) ++sent;
  EXPECT_LT(sent, 1000);
  EXPECT_FALSE(server.Send(id, chunk));
  EXPECT_FALSE(server.Send(id, hello));
  EXPECT_TRUE(WaitFor([&] { return disconnected.load() == id; }));

  ::close(fd);
  server.Stop();
}

// --- SIGPIPE regressions ---------------------------------------------------
// A SIGPIPE anywhere in these tests kills the whole gtest binary, so
// "completes normally" IS the assertion.

TEST(SigPipeTest, ServerSurvivesClientClosingMidWrite) {
  IgnoreSigPipe();
  std::atomic<uint64_t> conn{0};
  FrameServer server(FrameServerOptions{});
  server.OnFrame([&conn](uint64_t id, const Frame&) {
    conn.store(id, std::memory_order_release);
  });
  server.Start();

  const int fd = RawConnect(server.port());
  std::string hello;
  AppendFrame(FrameType::kHello, "", &hello);
  ASSERT_EQ(static_cast<ssize_t>(hello.size()),
            ::send(fd, hello.data(), hello.size(), 0));
  ASSERT_TRUE(WaitFor([&] { return conn.load() != 0; }));

  // Close the peer without reading, then pump writes at the dead socket
  // until the failure propagates. An unprotected write here would raise
  // SIGPIPE on the serve thread and take the process down.
  ::close(fd);
  std::string big;
  AppendFrame(FrameType::kActuation, std::string(64 * 1024, 'x'), &big);
  bool send_failed = false;
  for (int i = 0; i < 1000 && !send_failed; ++i) {
    send_failed = !server.Send(conn.load(std::memory_order_acquire), big);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(send_failed);
  server.Stop();
}

TEST(SigPipeTest, ClientSurvivesServerClosingMidWrite) {
  IgnoreSigPipe();
  FrameServer server(FrameServerOptions{});
  server.OnFrame([](uint64_t, const Frame&) {});
  server.Start();

  FrameClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  server.Stop();  // the peer vanishes under the client

  std::string wire;
  AppendFrame(FrameType::kStatsReport, std::string(4096, 'r'), &wire);
  bool send_failed = false;
  for (int i = 0; i < 1000 && !send_failed; ++i) {
    send_failed = !client.Send(wire);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(send_failed);
  EXPECT_FALSE(client.connected());
  client.Close();
}

}  // namespace
}  // namespace ctrlshed
