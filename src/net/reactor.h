#ifndef CTRLSHED_NET_REACTOR_H_
#define CTRLSHED_NET_REACTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ctrlshed {

/// Each field is the FrameServerOptions / TelemetryServerOptions field of
/// the same name, documented there.
struct ReactorOptions {
  int port = 0;
  std::string bind_address = "127.0.0.1";
  int max_clients = 64;
  double drain_timeout_wall = 0.25;
  double read_interval_wall = 0.0;
  int sndbuf_bytes = 0;
};

/// The one poll()-based TCP reactor behind every listening port: the
/// listener, a self-pipe for wakeups, a capped accept, per-connection
/// input and output buffers, paced reads, and a bounded drain on Stop().
/// It knows no protocol: each socket is read straight into its
/// connection's input buffer, and after every read the data handler gets
/// the unread bytes and returns how many it consumed; the rest stay
/// buffered. What to do when output does not fit is the caller's rule.
///
/// Every handler runs on the serve thread with no reactor lock held, so it
/// may call Send and Close. The reactor never calls out while holding its
/// lock, so a caller may hold its own lock across Send.
class Reactor {
 public:
  enum class SendResult {
    kQueued,  ///< appended to the connection's pending output
    kFull,    ///< would pass `max_pending`; nothing was queued
    kGone,    ///< no such open connection
  };
  /// Returns the number of leading bytes of `unread` it consumed.
  using DataHandler =
      std::function<size_t(uint64_t conn_id, std::string_view unread)>;
  using CloseHandler = std::function<void(uint64_t conn_id)>;

  Reactor(ReactorOptions options, DataHandler on_data, CloseHandler on_close);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds and spawns the serve thread. Aborts, naming the reason, if the
  /// address does not parse or cannot be bound (startup misconfiguration).
  void Start();
  /// Hands over what peers already sent, keeps flushing pending output for
  /// up to drain_timeout_wall, then closes every socket. Idempotent.
  void Stop();
  bool started() const { return started_.load(); }

  /// Queues `bytes` for `conn_id` unless its pending output would then pass
  /// `max_pending` bytes. Thread-safe; wakes the serve thread to flush.
  SendResult Send(uint64_t conn_id, std::string_view bytes,
                  size_t max_pending = std::numeric_limits<size_t>::max());
  /// Closes `conn_id` now, dropping its pending output, or with
  /// `after_flush` once that output is flushed; input that arrives
  /// meanwhile is then discarded unread.
  void Close(uint64_t conn_id, bool after_flush = false);

  int port() const { return port_; }
  uint64_t accepted() const { return accepted_.load(); }
  /// Open connections right now.
  size_t connections() const;
  /// Polls in which a data handler consumed at least one byte.
  uint64_t wakeups() const { return wakeups_.load(); }

 private:
  struct Conn;
  struct ServeState;

  void Serve();
  bool PollOnce(ServeState* s, bool accept, int timeout_ms);
  bool ReadConn(Conn* c);
  void Reap(ServeState* s);
  bool HasPendingOut() const;
  void WaitOnWakePipe(double until_wall) const;
  void AcceptNew();
  Conn* FindLocked(uint64_t conn_id) const;
  void FlushLocked(Conn* c);
  void CloseLocked(Conn* c);
  void WakeLocked();

  const ReactorOptions options_;
  const DataHandler on_data_;
  const CloseHandler on_close_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread thread_;

  // Guards conns_ and closed_ids_, and the wake pipe against Stop() closing
  // it under a writer (the serve thread reads it only while it runs).
  mutable std::mutex mu_;
  int wake_pipe_[2] = {-1, -1};
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<uint64_t> closed_ids_;  // awaiting the close handler
  uint64_t next_conn_id_ = 1;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> wakeups_{0};
};

}  // namespace ctrlshed

#endif  // CTRLSHED_NET_REACTOR_H_
