#include "net/reactor.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "net/byte_buffer.h"

namespace ctrlshed {

namespace {
// One recv() reads at most this much, straight into the connection's input
// buffer.
constexpr size_t kRecvChunk = size_t{64} << 10;

double NowWall() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  CS_CHECK_MSG(flags >= 0, "fcntl(F_GETFL) failed");
  CS_CHECK_MSG(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "fcntl(F_SETFL, O_NONBLOCK) failed");
}

// A non-blocking listening TCP socket on `bind_ip:port` (port 0 picks an
// ephemeral port); stores the bound port. -1 with the reason on failure.
int CreateListener(const std::string& bind_ip, int port, int* bound_port,
                   std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, bind_ip.c_str(), &addr.sin_addr) != 1) {
    *error = "bad bind address " + bind_ip;
    return -1;
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  const int one = 1;
  if (fd >= 0) setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  socklen_t len = sizeof(addr);
  if (fd < 0 ||
      bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 64) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    *error = "cannot listen on " + bind_ip + ":" + std::to_string(port) +
             ": " + std::strerror(errno);
    if (fd >= 0) close(fd);
    return -1;
  }
  *bound_port = ntohs(addr.sin_port);
  SetNonBlocking(fd);
  return fd;
}
}  // namespace

struct Reactor::Conn {
  uint64_t id = 0;
  int fd = -1;
  ByteBuffer in;  // serve thread only
  std::string out;
  bool close_after_flush = false;
  bool closed = false;
};

// Serve-thread state, reused across wakes so a steady stream allocates
// nothing.
struct Reactor::ServeState {
  std::vector<pollfd> fds;
  std::vector<Conn*> fd_conn;
  std::vector<uint64_t> closed;
  double woke_at = 0.0;  ///< Wall time the last poll returned.
};

Reactor::Reactor(ReactorOptions options, DataHandler on_data,
                 CloseHandler on_close)
    : options_(std::move(options)),
      on_data_(std::move(on_data)),
      on_close_(std::move(on_close)) {}

Reactor::~Reactor() { Stop(); }

void Reactor::Start() {
  CS_CHECK_MSG(!started_.load(), "Reactor::Start called twice");
  std::string error;
  listen_fd_ = CreateListener(options_.bind_address, options_.port, &port_,
                              &error);
  CS_CHECK_MSG(listen_fd_ >= 0, error.c_str());
  CS_CHECK_MSG(pipe(wake_pipe_) == 0, "reactor: pipe failed");
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
  started_.store(true);
  thread_ = std::thread([this] { Serve(); });
}

void Reactor::Stop() {
  if (!started_.exchange(false)) return;
  stop_requested_.store(true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    WakeLocked();
  }
  thread_.join();
  stop_requested_.store(false);

  std::lock_guard<std::mutex> lock(mu_);
  for (auto& c : conns_) CloseLocked(c.get());
  conns_.clear();
  close(listen_fd_);
  close(wake_pipe_[0]);
  close(wake_pipe_[1]);
  listen_fd_ = wake_pipe_[0] = wake_pipe_[1] = -1;
}

// Requires mu_ held, so Stop() cannot close the pipe under a writer.
void Reactor::WakeLocked() {
  const char b = 'w';
  [[maybe_unused]] ssize_t n = write(wake_pipe_[1], &b, 1);
}

Reactor::Conn* Reactor::FindLocked(uint64_t conn_id) const {
  for (const auto& c : conns_) {
    if (c->id == conn_id && !c->closed) return c.get();
  }
  return nullptr;
}

Reactor::SendResult Reactor::Send(uint64_t conn_id, std::string_view bytes,
                                  size_t max_pending) {
  std::lock_guard<std::mutex> lock(mu_);
  Conn* c = FindLocked(conn_id);
  if (c == nullptr) return SendResult::kGone;
  if (c->out.size() + bytes.size() > max_pending) return SendResult::kFull;
  c->out += bytes;
  WakeLocked();
  return SendResult::kQueued;
}

void Reactor::Close(uint64_t conn_id, bool after_flush) {
  std::lock_guard<std::mutex> lock(mu_);
  Conn* c = FindLocked(conn_id);
  if (c == nullptr) return;
  if (after_flush) {
    c->close_after_flush = true;
  } else {
    CloseLocked(c);
  }
  WakeLocked();
}

size_t Reactor::connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<size_t>(
      std::count_if(conns_.begin(), conns_.end(),
                    [](const std::unique_ptr<Conn>& c) { return !c->closed; }));
}

void Reactor::AcceptNew() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    SetNonBlocking(fd);
    if (options_.sndbuf_bytes > 0) {
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                 sizeof(options_.sndbuf_bytes));
    }
    // Only this thread adds connections, so the count cannot rise between
    // the check and the add.
    if (connections() >= static_cast<size_t>(options_.max_clients)) {
      close(fd);
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conns_.push_back(std::move(conn));
  }
}

// Reads `c` until EAGAIN, one chunk at a time straight into its input
// buffer, and hands the data handler the unread bytes after each chunk, so
// the buffer stays about one chunk deep however much the peer sent. mu_ is
// held around recv only: the handler runs unlocked. Returns whether the
// handler consumed anything.
bool Reactor::ReadConn(Conn* c) {
  bool consumed = false;
  while (true) {
    ssize_t n = 0;
    bool discard = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (c->closed) return consumed;
      n = recv(c->fd, c->in.WriteSpace(kRecvChunk), kRecvChunk, 0);
      if (n > 0) {
        c->in.Commit(static_cast<size_t>(n));
      } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        CloseLocked(c);
      }
      discard = c->close_after_flush;
    }
    if (n <= 0) return consumed;
    if (discard) {
      c->in.Consume(c->in.size());
      continue;
    }
    const size_t used = on_data_(c->id, c->in.unread());
    c->in.Consume(used);
    consumed = consumed || used > 0;
  }
}

// Requires mu_ held.
void Reactor::FlushLocked(Conn* c) {
  while (!c->out.empty()) {
    const ssize_t n = send(c->fd, c->out.data(), c->out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseLocked(c);
    return;
  }
  if (c->close_after_flush) CloseLocked(c);
}

// Requires mu_ held. The close handler runs later, in Reap, outside the
// lock.
void Reactor::CloseLocked(Conn* c) {
  if (c->closed) return;
  close(c->fd);
  c->fd = -1;
  c->closed = true;
  closed_ids_.push_back(c->id);
}

// One poll over the self-pipe, the listener (when `accept`) and every open
// connection; then reads, hands over and flushes what it reported. Returns
// whether a data handler consumed anything.
bool Reactor::PollOnce(ServeState* s, bool accept, int timeout_ms) {
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

  bool consumed = false;
  for (size_t i = 0; i < s->fd_conn.size(); ++i) {
    Conn* c = s->fd_conn[i];
    const short re = s->fds[conn_base + i].revents;
    if (re & (POLLERR | POLLNVAL)) {
      std::lock_guard<std::mutex> lock(mu_);
      CloseLocked(c);
      continue;
    }
    // POLLHUP can accompany final buffered bytes; read first so a peer's
    // last message before it hung up is not lost.
    if (re & (POLLIN | POLLHUP)) consumed = ReadConn(c) || consumed;
    std::lock_guard<std::mutex> lock(mu_);
    if (!c->closed) FlushLocked(c);
  }
  Reap(s);
  return consumed;
}

// Drops closed connections, then runs the close handler for each outside
// mu_.
void Reactor::Reap(ServeState* s) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) {
                                  return c->closed;
                                }),
                 conns_.end());
    s->closed.swap(closed_ids_);
  }
  for (uint64_t id : s->closed) on_close_(id);
  s->closed.clear();
}

bool Reactor::HasPendingOut() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : conns_) {
    if (!c->closed && !c->out.empty()) return true;
  }
  return false;
}

// Sleeps until `until_wall` unless the self-pipe turns readable first
// (Stop() or Send()); the next poll drains it. ppoll, not poll: the
// interval is sub-millisecond.
void Reactor::WaitOnWakePipe(double until_wall) const {
  const double rest = until_wall - NowWall();
  if (rest <= 0.0) return;
  pollfd fd{wake_pipe_[0], POLLIN, 0};
  timespec ts;
  ts.tv_sec = static_cast<time_t>(rest);
  ts.tv_nsec = static_cast<long>((rest - static_cast<double>(ts.tv_sec)) * 1e9);
  ppoll(&fd, 1, &ts, nullptr);
}

void Reactor::Serve() {
  ServeState s;
  while (!stop_requested_.load()) {
    if (!PollOnce(&s, /*accept=*/true, 200)) continue;
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (options_.read_interval_wall > 0.0) {
      WaitOnWakePipe(s.woke_at + options_.read_interval_wall);
    }
  }
  // Stop: deliver what the peers already sent (a zero-timeout poll reports
  // every connection with unread bytes), then keep flushing pending
  // outbound bytes (still reading) for up to drain_timeout_wall.
  PollOnce(&s, /*accept=*/false, 0);
  const double deadline = NowWall() + options_.drain_timeout_wall;
  while (HasPendingOut() && NowWall() < deadline) {
    PollOnce(&s, /*accept=*/false, 20);
  }
}

}  // namespace ctrlshed
