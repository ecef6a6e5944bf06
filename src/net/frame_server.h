#ifndef CTRLSHED_NET_FRAME_SERVER_H_
#define CTRLSHED_NET_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "net/frame.h"
#include "net/reactor.h"

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

/// The length-prefixed frame protocol over the shared socket Reactor
/// (net/reactor.h), which owns the sockets, the poll loop and the serve
/// thread.
///
/// Decoded frames are delivered to the OnFrame handler ON THE SERVE
/// THREAD, which makes it the single producer the SPSC ingress rings
/// require. A stream that fails the frame magic / bounds checks is
/// counted and the connection dropped — malformed *payloads* inside
/// well-formed frames are the handler's policy (it counts its own
/// rejects). Stop() delivers every complete frame its peers already sent
/// before the serve thread exits. In steady state the read path allocates
/// nothing: sockets are read straight into each connection's input buffer,
/// frames are parsed in place, and one Frame (its payload string included)
/// is reused for every delivery, so a handler must copy what it keeps.
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

  int port() const { return reactor_.port(); }
  uint64_t connections_accepted() const { return reactor_.accepted(); }
  uint64_t frames_received() const { return frames_received_.load(); }
  /// Streams dropped for framing corruption (bad magic/type/length).
  uint64_t corrupt_streams() const { return corrupt_streams_.load(); }
  /// Polls that delivered at least one frame; frames_received() / wakeups()
  /// is the frames each wake carried.
  uint64_t wakeups() const { return reactor_.wakeups(); }

 private:
  size_t Deliver(uint64_t conn_id, std::string_view unread);

  const FrameServerOptions options_;
  FrameHandler on_frame_;
  DisconnectHandler on_disconnect_;
  Frame frame_;  // reused for every delivery; serve thread only

  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> corrupt_streams_{0};
  Reactor reactor_;  // last: its serve thread uses the members above
};

}  // namespace ctrlshed

#endif  // CTRLSHED_NET_FRAME_SERVER_H_
