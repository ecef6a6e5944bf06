#include "net/frame.h"

#include <cmath>
#include <cstring>

#include "common/macros.h"

namespace ctrlshed {

namespace {

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

double GetF64(const uint8_t* p) {
  const uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool KnownType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kTupleBatch) &&
         t <= static_cast<uint8_t>(FrameType::kHelloAck);
}

}  // namespace

void PutU32(uint32_t v, std::string* out) {
  char b[4];
  b[0] = static_cast<char>(v);
  b[1] = static_cast<char>(v >> 8);
  b[2] = static_cast<char>(v >> 16);
  b[3] = static_cast<char>(v >> 24);
  out->append(b, 4);
}

void PutU64(uint64_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
  PutU32(static_cast<uint32_t>(v >> 32), out);
}

void PutF64(double v, std::string* out) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

bool WireReader::ReadU32(uint32_t* v) {
  if (!ok_ || size_ - pos_ < 4) {
    ok_ = false;
    return false;
  }
  *v = GetU32(data_ + pos_);
  pos_ += 4;
  return true;
}

bool WireReader::ReadU64(uint64_t* v) {
  if (!ok_ || size_ - pos_ < 8) {
    ok_ = false;
    return false;
  }
  *v = GetU64(data_ + pos_);
  pos_ += 8;
  return true;
}

bool WireReader::ReadF64(double* v) {
  uint64_t bits = 0;
  if (!ReadU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool WireReader::ReadBytes(size_t n, std::string* v) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  v->assign(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return true;
}

void AppendFrame(FrameType type, const std::string& payload,
                 std::string* out) {
  CS_CHECK_MSG(payload.size() <= kMaxFramePayload, "frame payload too large");
  PutU32(kFrameMagic, out);
  out->push_back(static_cast<char>(type));
  PutU32(static_cast<uint32_t>(payload.size()), out);
  out->append(payload);
}

void FrameDecoder::Feed(const char* data, size_t n) {
  if (n == 0) return;
  std::memcpy(WriteSpace(n), data, n);
  Commit(n);
}

FrameDecoder::Status FrameDecoder::Next(Frame* out) {
  size_t used = 0;
  const Status st = Parse(buf_.unread(), max_payload_, out, &used);
  if (st == Status::kFrame) buf_.Consume(used);
  return st;
}

FrameDecoder::Status FrameDecoder::Parse(std::string_view bytes,
                                         size_t max_payload, Frame* out,
                                         size_t* used) {
  if (bytes.size() < kFrameHeaderBytes) return Status::kNeedMore;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(bytes.data());
  if (GetU32(p) != kFrameMagic) return Status::kCorrupt;
  const uint8_t type = p[4];
  const uint32_t len = GetU32(p + 5);
  if (!KnownType(type) || len > max_payload) return Status::kCorrupt;
  if (bytes.size() < kFrameHeaderBytes + len) return Status::kNeedMore;
  out->type = static_cast<FrameType>(type);
  out->payload.assign(bytes.data() + kFrameHeaderBytes, len);
  *used = kFrameHeaderBytes + len;
  return Status::kFrame;
}

std::string EncodeTupleBatchFrame(uint32_t source, const Tuple* tuples,
                                  size_t n) {
  CS_CHECK_MSG(n <= kMaxTuplesPerFrame, "tuple batch exceeds frame capacity");
  std::string payload;
  payload.reserve(8 + n * kTupleWireBytes);
  PutU32(source, &payload);
  PutU32(static_cast<uint32_t>(n), &payload);
  for (size_t i = 0; i < n; ++i) {
    PutF64(tuples[i].arrival_time, &payload);
    PutF64(tuples[i].value, &payload);
    PutF64(tuples[i].aux, &payload);
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(FrameType::kTupleBatch, payload, &frame);
  return frame;
}

bool DecodeTupleBatch(const std::string& payload, TupleBatch* out) {
  if (payload.size() < 8) return false;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data());
  const uint32_t source = GetU32(p);
  const uint32_t count = GetU32(p + 4);
  // Exact-size check rejects both truncated batches and trailing garbage;
  // the count bound keeps a hostile header from driving a huge reserve.
  if (count > kMaxTuplesPerFrame ||
      payload.size() - 8 != static_cast<size_t>(count) * kTupleWireBytes) {
    return false;
  }
  out->source = source;
  out->tuples.resize(count);  // a reused batch keeps its capacity
  p += 8;
  for (Tuple& t : out->tuples) {
    t = Tuple{};
    t.source = static_cast<int>(source);
    t.arrival_time = GetF64(p);
    t.value = GetF64(p + 8);
    t.aux = GetF64(p + 16);
    p += kTupleWireBytes;
    // A NaN/inf arrival time would poison the delay accounting the control
    // loop feeds on; reject the whole frame (same all-or-nothing policy as
    // trace parsing).
    if (!std::isfinite(t.arrival_time) || !std::isfinite(t.value) ||
        !std::isfinite(t.aux)) {
      return false;
    }
  }
  return true;
}

}  // namespace ctrlshed
