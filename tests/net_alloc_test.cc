// Steady-state allocation checks of the node's ingress path: FrameDecoder
// and DecodeTupleBatch into reused objects, and a FrameServer read over a
// raw socket, must not touch the heap once warmed up. A counting global
// operator new (the engine_throughput --check-allocs idiom) counts every
// allocation in the process while armed, so this is its own binary.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/frame_server.h"

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ctrlshed {
namespace {

constexpr int kFrames = 10000;
constexpr size_t kTuplesPerFrame = 8;

/// Counts allocations from construction until Stop().
class AllocWindow {
 public:
  AllocWindow() {
    g_alloc_count.store(0);
    g_count_allocs.store(true);
  }
  ~AllocWindow() { Stop(); }
  uint64_t Stop() {
    g_count_allocs.store(false);
    return g_alloc_count.load();
  }
};

/// kFrames 8-tuple kTupleBatch frames, back to back; returns one frame's
/// size in *frame_bytes.
std::string EncodedStream(size_t* frame_bytes) {
  std::vector<Tuple> tuples(kTuplesPerFrame);
  for (size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].arrival_time = 0.25 * static_cast<double>(i);
    tuples[i].value = static_cast<double>(i);
  }
  std::string wire;
  for (int i = 0; i < kFrames; ++i) {
    const std::string frame = EncodeTupleBatchFrame(
        static_cast<uint32_t>(i % 2), tuples.data(), tuples.size());
    *frame_bytes = frame.size();
    wire += frame;
  }
  return wire;
}

TEST(NetAllocTest, DecoderAndTupleDecodeAllocateNothing) {
  size_t frame_bytes = 0;
  const std::string wire = EncodedStream(&frame_bytes);
  constexpr size_t kChunk = 4096;

  FrameDecoder dec;
  Frame frame;
  TupleBatch batch;
  size_t frames = 0;
  size_t tuples = 0;
  size_t rejected = 0;
  const auto feed = [&](size_t begin, size_t end) {
    for (size_t off = begin; off < end; off += kChunk) {
      dec.Feed(wire.data() + off, std::min(kChunk, end - off));
      while (dec.Next(&frame) == FrameDecoder::Status::kFrame) {
        ++frames;
        if (DecodeTupleBatch(frame.payload, &batch)) {
          tuples += batch.tuples.size();
        } else {
          ++rejected;
        }
      }
    }
  };
  // Warm-up: the first chunks grow the decoder buffer, the payload string
  // and the tuple vector to their steady size.
  const size_t warm = 4 * kChunk;
  feed(0, warm);
  AllocWindow window;
  feed(warm, wire.size());
  const uint64_t allocs = window.Stop();

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(frames, static_cast<size_t>(kFrames));
  EXPECT_EQ(tuples, kFrames * kTuplesPerFrame);
  EXPECT_EQ(rejected, 0u);
  EXPECT_EQ(dec.buffered(), 0u);
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

bool SendAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, 0);
    if (sent <= 0) return false;
    data += sent;
    n -= static_cast<size_t>(sent);
  }
  return true;
}

/// Waits (without allocating) until `server` has received `n` frames and
/// counted `wakes` wakes that delivered frames.
bool WaitForFrames(const FrameServer& server, uint64_t n, uint64_t wakes = 0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.frames_received() < n || server.wakeups() < wakes) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(NetAllocTest, ServerReadPathAllocatesNothingAfterFirstWake) {
  size_t frame_bytes = 0;
  const std::string wire = EncodedStream(&frame_bytes);
  // Unpaced (the control port) and paced at the node's pump interval.
  for (const double interval : {0.0, 500e-6}) {
    SCOPED_TRACE("read_interval_wall " + std::to_string(interval));
    FrameServerOptions opts;
    opts.read_interval_wall = interval;
    FrameServer server(opts);
    TupleBatch batch;  // the node's handler: decode into one reused batch
    std::atomic<uint64_t> tuples{0};
    server.OnFrame([&batch, &tuples](uint64_t, const Frame& f) {
      if (DecodeTupleBatch(f.payload, &batch)) {
        tuples.fetch_add(batch.tuples.size(), std::memory_order_relaxed);
      }
    });
    server.Start();
    const int fd = RawConnect(server.port());

    // The first wake accepts, grows the read buffer and the reused frame
    // and batch; from then on the read path must stay off the heap. A wake
    // reads until the socket would block, so the rest goes out only once
    // the first wake is counted: sent earlier, it can land in that wake.
    ASSERT_TRUE(SendAll(fd, wire.data(), frame_bytes));
    ASSERT_TRUE(WaitForFrames(server, 1, /*wakes=*/1));
    uint64_t allocs = 0;
    {
      AllocWindow window;
      const bool sent =
          SendAll(fd, wire.data() + frame_bytes, wire.size() - frame_bytes);
      const bool received = WaitForFrames(server, kFrames);
      allocs = window.Stop();
      ASSERT_TRUE(sent);
      ASSERT_TRUE(received);
    }
    EXPECT_EQ(allocs, 0u);

    ::close(fd);
    server.Stop();
    // The serve thread counts a frame before its handler runs and a wake
    // after its frames are dispatched; the join in Stop() orders both
    // before these reads.
    EXPECT_EQ(tuples.load(), kFrames * kTuplesPerFrame);
    EXPECT_GE(server.wakeups(), 2u);
  }
}

}  // namespace
}  // namespace ctrlshed
