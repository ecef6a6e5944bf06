#include "net/frame_server.h"

#include <utility>

#include "common/macros.h"
#include "net/socket_util.h"

namespace ctrlshed {

FrameServer::FrameServer(FrameServerOptions options)
    : options_(std::move(options)),
      reactor_(
          {.port = options_.port,
           .bind_address = options_.bind_address,
           .max_clients = options_.max_clients,
           .drain_timeout_wall = options_.drain_timeout_wall,
           .read_interval_wall = options_.read_interval_wall},
          [this](uint64_t id, std::string_view unread) {
            return Deliver(id, unread);
          },
          [this](uint64_t id) {
            if (on_disconnect_) on_disconnect_(id);
          }) {}

FrameServer::~FrameServer() { Stop(); }

void FrameServer::OnFrame(FrameHandler handler) {
  CS_CHECK_MSG(!reactor_.started(), "handlers must be set before Start");
  on_frame_ = std::move(handler);
}

void FrameServer::OnDisconnect(DisconnectHandler handler) {
  CS_CHECK_MSG(!reactor_.started(), "handlers must be set before Start");
  on_disconnect_ = std::move(handler);
}

void FrameServer::Start() {
  IgnoreSigPipe();
  reactor_.Start();
}

void FrameServer::Stop() { reactor_.Stop(); }

bool FrameServer::Send(uint64_t conn_id, std::string bytes) {
  const Reactor::SendResult r =
      reactor_.Send(conn_id, bytes, options_.max_out_buffer);
  if (r == Reactor::SendResult::kFull) reactor_.Close(conn_id);
  return r == Reactor::SendResult::kQueued;
}

// The frame protocol: delivers every complete frame in `unread` and
// consumes exactly those bytes; a partial frame waits for the next read.
size_t FrameServer::Deliver(uint64_t conn_id, std::string_view unread) {
  size_t consumed = 0;
  while (true) {
    size_t used = 0;
    const FrameDecoder::Status st = FrameDecoder::Parse(
        unread.substr(consumed), options_.max_payload, &frame_, &used);
    if (st == FrameDecoder::Status::kNeedMore) return consumed;
    if (st == FrameDecoder::Status::kCorrupt) {
      // A byte stream that desyncs cannot be trusted again; count it and
      // cut the peer loose rather than guess at a resync point.
      corrupt_streams_.fetch_add(1, std::memory_order_relaxed);
      reactor_.Close(conn_id);
      return consumed;
    }
    consumed += used;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    if (on_frame_) on_frame_(conn_id, frame_);
  }
}

}  // namespace ctrlshed
