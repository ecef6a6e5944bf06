#ifndef CTRLSHED_NET_FRAME_SERVER_H_
#define CTRLSHED_NET_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"

namespace ctrlshed {

struct FrameServerOptions {
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  std::string bind_address = "127.0.0.1";
  int max_clients = 64;
  /// Per-frame payload ceiling handed to the decoder.
  size_t max_payload = kMaxFramePayload;
  /// Per-connection outbound buffer cap; a peer that stops reading past
  /// this is disconnected rather than allowed to wedge the server.
  size_t max_out_buffer = size_t{4} << 20;
  /// How long Stop() keeps flushing pending outbound bytes (wall seconds).
  double drain_timeout_wall = 0.25;
  /// Read pacing (wall seconds). After a wake that delivered frames, the
  /// serve thread waits out the rest of this interval on its self-pipe
  /// alone (Stop() and Send() still cut the wait short), then reads every
  /// readable connection until EAGAIN: one wake per interval under load,
  /// not one per frame. A quiet server blocks in poll() as at 0, so the
  /// first frame after an idle gap is read at once. 0 reads as soon as
  /// bytes arrive.
  double read_interval_wall = 0.0;
};

/// Dependency-free poll()-based TCP server speaking the length-prefixed
/// frame protocol, in the style of TelemetryServer: one serve thread, all
/// sockets non-blocking, a self-pipe for wakeups, bounded buffers
/// everywhere, MSG_NOSIGNAL on every send.
///
/// Decoded frames are delivered to the OnFrame handler ON THE SERVE
/// THREAD, which makes it the single producer the SPSC ingress rings
/// require. A stream that fails the frame magic / bounds checks is
/// counted and the connection dropped — malformed *payloads* inside
/// well-formed frames are the handler's policy (it counts its own
/// rejects). Stop() delivers every complete frame its peers already sent
/// before the serve thread exits. In steady state the read path allocates
/// nothing: sockets are read straight into each connection's decoder, and
/// one Frame (its payload string included) is reused for every delivery,
/// so a handler must copy what it keeps.
class FrameServer {
 public:
  /// `conn_id` is stable for the lifetime of one connection, never reused.
  using FrameHandler = std::function<void(uint64_t conn_id, const Frame&)>;
  using DisconnectHandler = std::function<void(uint64_t conn_id)>;

  explicit FrameServer(FrameServerOptions options);
  ~FrameServer();

  /// Handlers must be installed before Start.
  void OnFrame(FrameHandler handler);
  void OnDisconnect(DisconnectHandler handler);

  /// Binds and spawns the serve thread; aborts if the port cannot be
  /// bound (startup misconfiguration, same policy as TelemetryServer).
  void Start();
  void Stop();

  /// Queues `bytes` (already framed) for `conn_id`. Thread-safe; returns
  /// false if the connection is gone or its buffer is full (in which case
  /// the connection is dropped — a control channel that backlogs 4MB is
  /// dead for our purposes).
  bool Send(uint64_t conn_id, std::string bytes);

  int port() const { return port_; }
  uint64_t connections_accepted() const { return connections_accepted_.load(); }
  uint64_t frames_received() const { return frames_received_.load(); }
  /// Streams dropped for framing corruption (bad magic/type/length).
  uint64_t corrupt_streams() const { return corrupt_streams_.load(); }
  /// Polls that delivered at least one frame; frames_received() / wakeups()
  /// is the frames each wake carried.
  uint64_t wakeups() const { return wakeups_.load(); }

 private:
  struct Conn;
  struct ServeState;

  void Serve();
  size_t PollOnce(ServeState* s, bool accept, int timeout_ms);
  void ReadAll(ServeState* s);
  size_t ReadConn(Conn* c, Frame* frame);
  void Reap(ServeState* s);
  bool HasPendingOut();
  void WaitOnWakePipe(double until_wall) const;
  void AcceptNew();
  void FlushConn(Conn* c);
  void CloseConn(Conn* c);
  void Wake();

  FrameServerOptions options_;
  FrameHandler on_frame_;
  DisconnectHandler on_disconnect_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread thread_;

  std::mutex mu_;  // guards conns_, their out buffers, and disconnected_
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<uint64_t> disconnected_;  // closed ids awaiting handler dispatch
  uint64_t next_conn_id_ = 1;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> corrupt_streams_{0};
  std::atomic<uint64_t> wakeups_{0};
};

}  // namespace ctrlshed

#endif  // CTRLSHED_NET_FRAME_SERVER_H_
