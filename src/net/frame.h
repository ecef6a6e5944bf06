#ifndef CTRLSHED_NET_FRAME_H_
#define CTRLSHED_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/tuple.h"
#include "net/byte_buffer.h"

namespace ctrlshed {

/// Message kinds carried by the length-prefixed cluster framing. One codec
/// serves all three links: producer -> node tuple ingress, node ->
/// controller stats reports, controller -> node actuation commands.
enum class FrameType : uint8_t {
  kTupleBatch = 1,   ///< producer -> node: a batch of tuples from one source
  kHello = 2,        ///< node -> controller: membership announcement
  kStatsReport = 3,  ///< node -> controller: one period's counter deltas
  kActuation = 4,    ///< controller -> node: the v(k) command
  kAck = 5,          ///< node -> controller: realized actuation
  kHelloAck = 6,     ///< controller -> node: hello reply w/ clock exchange
};

/// Frame header: magic (4B LE) + type (1B) + payload length (4B LE).
/// The magic doubles as stream-corruption detection — a desynced or
/// garbage-speaking peer fails the magic check and is disconnected rather
/// than interpreted.
inline constexpr uint32_t kFrameMagic = 0x31465443u;  // "CTF1" little-endian
inline constexpr size_t kFrameHeaderBytes = 9;
/// Hard payload ceiling (same spirit as trace_io's kMaxSlots: one corrupt
/// length must never turn into a giant allocation).
inline constexpr size_t kMaxFramePayload = size_t{1} << 20;

struct Frame {
  FrameType type = FrameType::kTupleBatch;
  std::string payload;
};

// --- Little-endian primitives (shared with cluster/wire.cc) --------------

void PutU32(uint32_t v, std::string* out);
void PutU64(uint64_t v, std::string* out);
void PutF64(double v, std::string* out);

/// Bounds-checked sequential reader over a payload. Every Read* returns
/// false (and poisons the reader) on overrun, so decoders can chain reads
/// and check once. Finiteness policy stays with the message decoders.
class WireReader {
 public:
  explicit WireReader(const std::string& payload)
      : data_(reinterpret_cast<const uint8_t*>(payload.data())),
        size_(payload.size()) {}

  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadF64(double* v);
  /// Reads `n` raw bytes into *v (used for length-prefixed strings).
  bool ReadBytes(size_t n, std::string* v);

  /// True when every byte was consumed — decoders reject trailing garbage.
  bool AtEnd() const { return ok_ && pos_ == size_; }
  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Appends one framed message (header + payload) to `out`.
void AppendFrame(FrameType type, const std::string& payload, std::string* out);

/// Incremental frame extractor over a TCP byte stream. Feed() appends raw
/// received bytes; Next() pops complete frames. Corruption (bad magic,
/// unknown type, oversized length) is unrecoverable for a byte stream —
/// the caller must drop the connection.
///
/// Next() only advances a read offset; the consumed prefix is compacted
/// away once per write (Feed or WriteSpace), not once per frame. A reused
/// decoder and a reused Frame allocate nothing once the buffer and the
/// payload string have grown to the stream's largest frame.
class FrameDecoder {
 public:
  enum class Status {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< *out holds the next frame
    kCorrupt,   ///< stream desynced/hostile; drop the connection
  };

  explicit FrameDecoder(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(const char* data, size_t n);
  /// Room for at least `n` more bytes after the buffered ones, so a reader
  /// can recv() straight into the decoder; Commit(k), k <= n, then appends
  /// the k bytes written there. The pointer is valid until the decoder's
  /// next Feed, WriteSpace or Next.
  char* WriteSpace(size_t n) { return buf_.WriteSpace(n); }
  void Commit(size_t n) { buf_.Commit(n); }
  Status Next(Frame* out);

  size_t buffered() const { return buf_.size(); }

  /// The frame parser: decodes the frame at the front of `bytes` into *out
  /// and stores its size (header included) in *used. kNeedMore and
  /// kCorrupt leave both untouched. Next() and FrameServer's reads share it.
  static Status Parse(std::string_view bytes, size_t max_payload, Frame* out,
                      size_t* used);

 private:
  size_t max_payload_;
  ByteBuffer buf_;
};

// --- Tuple batch codec ----------------------------------------------------

/// Payload: source (u32), count (u32), then count x (arrival_time f64,
/// value f64, aux f64). Lineage and port are engine-local and never travel.
inline constexpr size_t kTupleWireBytes = 24;
inline constexpr uint32_t kMaxTuplesPerFrame =
    static_cast<uint32_t>((kMaxFramePayload - 8) / kTupleWireBytes);

struct TupleBatch {
  uint32_t source = 0;
  std::vector<Tuple> tuples;
};

/// Encodes a full frame (header included), ready to send.
std::string EncodeTupleBatchFrame(uint32_t source, const Tuple* tuples,
                                  size_t n);

/// Hardened decode of a kTupleBatch payload: rejects truncated batches,
/// count/length mismatches (trailing garbage), and non-finite
/// arrival_time/value/aux. Returns false without touching engine state so
/// the caller can count the drop (net.ingress.rejected) and move on.
bool DecodeTupleBatch(const std::string& payload, TupleBatch* out);

}  // namespace ctrlshed

#endif  // CTRLSHED_NET_FRAME_H_
