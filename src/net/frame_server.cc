#include "net/frame_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "common/macros.h"
#include "net/socket_util.h"

namespace ctrlshed {

namespace {
// One recv() reads at most this much, straight into the connection's
// decoder.
constexpr size_t kRecvChunk = size_t{64} << 10;

double NowWall() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

struct FrameServer::Conn {
  uint64_t id = 0;
  int fd = -1;
  FrameDecoder decoder{kMaxFramePayload};
  std::string out;
  bool closed = false;

  explicit Conn(size_t max_payload) : decoder(max_payload) {}
};

// Serve-thread state, reused across wakes so a steady stream allocates
// nothing.
struct FrameServer::ServeState {
  std::vector<pollfd> fds;
  std::vector<Conn*> fd_conn;
  std::vector<uint64_t> disconnects;
  Frame frame;
  double woke_at = 0.0;  ///< Wall time the last poll returned.
};

FrameServer::FrameServer(FrameServerOptions options)
    : options_(std::move(options)) {}

FrameServer::~FrameServer() { Stop(); }

void FrameServer::OnFrame(FrameHandler handler) {
  CS_CHECK_MSG(!started_.load(), "handlers must be set before Start");
  on_frame_ = std::move(handler);
}

void FrameServer::OnDisconnect(DisconnectHandler handler) {
  CS_CHECK_MSG(!started_.load(), "handlers must be set before Start");
  on_disconnect_ = std::move(handler);
}

void FrameServer::Start() {
  CS_CHECK_MSG(!started_.load(), "FrameServer::Start called twice");
  IgnoreSigPipe();

  std::string error;
  listen_fd_ = CreateListener(options_.bind_address, options_.port, &port_,
                              &error);
  CS_CHECK_MSG(listen_fd_ >= 0, "frame server: cannot bind ingress port");
  SetNonBlocking(listen_fd_);

  CS_CHECK_MSG(pipe(wake_pipe_) == 0, "frame server: pipe failed");
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);

  started_.store(true);
  thread_ = std::thread([this] { Serve(); });
}

void FrameServer::Stop() {
  if (!started_.exchange(false)) return;
  stop_requested_.store(true);
  Wake();
  thread_.join();
  stop_requested_.store(false);

  std::lock_guard<std::mutex> lock(mu_);
  for (auto& c : conns_) {
    if (!c->closed) CloseConn(c.get());
  }
  conns_.clear();
  close(listen_fd_);
  close(wake_pipe_[0]);
  close(wake_pipe_[1]);
  listen_fd_ = wake_pipe_[0] = wake_pipe_[1] = -1;
}

void FrameServer::Wake() {
  const char b = 'w';
  [[maybe_unused]] ssize_t n = write(wake_pipe_[1], &b, 1);
}

bool FrameServer::Send(uint64_t conn_id, std::string bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Conn* target = nullptr;
    for (auto& c : conns_) {
      if (c->id == conn_id && !c->closed) {
        target = c.get();
        break;
      }
    }
    if (target == nullptr) return false;
    if (target->out.size() + bytes.size() > options_.max_out_buffer) {
      CloseConn(target);
      return false;
    }
    target->out += bytes;
  }
  Wake();
  return true;
}

void FrameServer::AcceptNew() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    SetNonBlocking(fd);
    std::lock_guard<std::mutex> lock(mu_);
    size_t active = 0;
    for (const auto& c : conns_) {
      if (!c->closed) ++active;
    }
    if (active >= static_cast<size_t>(options_.max_clients)) {
      close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>(options_.max_payload);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conns_.push_back(std::move(conn));
  }
}

// Reads `c` until EAGAIN, one chunk at a time straight into its decoder,
// and delivers each chunk's complete frames before the next recv, so the
// buffer stays about one chunk deep however much the peer sent. mu_ is
// held around recv only: the handler runs unlocked and may call Send().
size_t FrameServer::ReadConn(Conn* c, Frame* frame) {
  size_t delivered = 0;
  while (true) {
    ssize_t n = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (c->closed) return delivered;
      n = recv(c->fd, c->decoder.WriteSpace(kRecvChunk), kRecvChunk, 0);
      if (n > 0) {
        c->decoder.Commit(static_cast<size_t>(n));
      } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        CloseConn(c);
      }
    }
    // Deliver complete frames even when the peer just hung up: its final
    // batch is already buffered and must not be lost.
    while (true) {
      const FrameDecoder::Status st = c->decoder.Next(frame);
      if (st == FrameDecoder::Status::kNeedMore) break;
      if (st == FrameDecoder::Status::kCorrupt) {
        // A byte stream that desyncs cannot be trusted again; count it and
        // cut the peer loose rather than guess at a resync point.
        corrupt_streams_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu_);
        CloseConn(c);
        return delivered;
      }
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      ++delivered;
      if (on_frame_) on_frame_(c->id, *frame);
    }
    if (n <= 0) return delivered;
  }
}

void FrameServer::FlushConn(Conn* c) {
  while (!c->out.empty()) {
    const ssize_t n = send(c->fd, c->out.data(), c->out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseConn(c);
    return;
  }
}

// Requires mu_ held. The disconnect handler runs later, outside the lock,
// so handlers may call Send() freely.
void FrameServer::CloseConn(Conn* c) {
  if (c->closed) return;
  close(c->fd);
  c->fd = -1;
  c->closed = true;
  disconnected_.push_back(c->id);
}

// One poll over the self-pipe, the listener (when `accept`) and every live
// connection; then reads, delivers and flushes what it reported. Returns
// the frames delivered.
size_t FrameServer::PollOnce(ServeState* s, bool accept, int timeout_ms) {
  s->fds.clear();
  s->fd_conn.clear();
  s->fds.push_back({wake_pipe_[0], POLLIN, 0});
  if (accept) s->fds.push_back({listen_fd_, POLLIN, 0});
  const size_t conn_base = s->fds.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& c : conns_) {
      if (c->closed) continue;
      const short events = c->out.empty() ? POLLIN : (POLLIN | POLLOUT);
      s->fds.push_back({c->fd, events, 0});
      s->fd_conn.push_back(c.get());
    }
  }

  poll(s->fds.data(), s->fds.size(), timeout_ms);
  s->woke_at = NowWall();

  if (s->fds[0].revents & POLLIN) {
    char buf[64];
    while (read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
    }
  }
  if (accept && (s->fds[1].revents & POLLIN)) AcceptNew();

  size_t delivered = 0;
  for (size_t i = 0; i < s->fd_conn.size(); ++i) {
    Conn* c = s->fd_conn[i];
    const short re = s->fds[conn_base + i].revents;
    if (re & (POLLERR | POLLNVAL)) {
      std::lock_guard<std::mutex> lock(mu_);
      CloseConn(c);
      continue;
    }
    // POLLHUP can accompany final buffered bytes; read first so a
    // producer's last batch before disconnect is not lost.
    if (re & (POLLIN | POLLHUP)) delivered += ReadConn(c, &s->frame);
    std::lock_guard<std::mutex> lock(mu_);
    if (!c->closed && !c->out.empty()) FlushConn(c);
  }
  Reap(s);
  return delivered;
}

// Stop's read pass: every live connection until EAGAIN, so frames a peer
// sent before Stop() are delivered rather than closed with the socket.
void FrameServer::ReadAll(ServeState* s) {
  s->fd_conn.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& c : conns_) {
      if (!c->closed) s->fd_conn.push_back(c.get());
    }
  }
  for (Conn* c : s->fd_conn) ReadConn(c, &s->frame);
  Reap(s);
}

// Drops closed connections, then runs the disconnect handler for each
// outside mu_, so handlers may call Send() without deadlocking.
void FrameServer::Reap(ServeState* s) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) {
                                  return c->closed;
                                }),
                 conns_.end());
    s->disconnects.swap(disconnected_);
  }
  for (uint64_t id : s->disconnects) {
    if (on_disconnect_) on_disconnect_(id);
  }
  s->disconnects.clear();
}

bool FrameServer::HasPendingOut() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : conns_) {
    if (!c->closed && !c->out.empty()) return true;
  }
  return false;
}

// Sleeps until `until_wall` unless the self-pipe turns readable first
// (Stop() or Send()); the next poll drains it. ppoll, not poll: the
// interval is sub-millisecond.
void FrameServer::WaitOnWakePipe(double until_wall) const {
  const double rest = until_wall - NowWall();
  if (rest <= 0.0) return;
  pollfd fd{wake_pipe_[0], POLLIN, 0};
  timespec ts;
  ts.tv_sec = static_cast<time_t>(rest);
  ts.tv_nsec = static_cast<long>((rest - static_cast<double>(ts.tv_sec)) * 1e9);
  ppoll(&fd, 1, &ts, nullptr);
}

void FrameServer::Serve() {
  ServeState s;
  while (!stop_requested_.load()) {
    if (PollOnce(&s, /*accept=*/true, 200) == 0) continue;
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (options_.read_interval_wall > 0.0) {
      WaitOnWakePipe(s.woke_at + options_.read_interval_wall);
    }
  }
  // Stop: deliver what the peers already sent, then keep flushing pending
  // outbound bytes (still reading) for up to drain_timeout_wall.
  ReadAll(&s);
  const double deadline = NowWall() + options_.drain_timeout_wall;
  while (HasPendingOut() && NowWall() < deadline) {
    PollOnce(&s, /*accept=*/false, 20);
  }
}

}  // namespace ctrlshed
