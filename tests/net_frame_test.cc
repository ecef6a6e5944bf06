// Unit tests of the cluster framing layer: the length-prefixed frame
// codec (including a stream cut at every split point and in random
// chunks), the hardened tuple-batch decoder (oversized frames, truncated
// batches, non-finite floats and trailing garbage are counted drops, never
// crashes), and the control wire messages — round-trips plus a seeded
// fuzz sweep over malformed bytes.

#include "net/frame.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cluster/wire.h"
#include "common/rng.h"

namespace ctrlshed {
namespace {

Tuple MakeTuple(double at, double value, double aux) {
  Tuple t;
  t.arrival_time = at;
  t.value = value;
  t.aux = aux;
  return t;
}

std::vector<Tuple> SomeTuples(size_t n) {
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(MakeTuple(0.5 * static_cast<double>(i),
                               static_cast<double>(i) - 3.0, 0.25));
  }
  return tuples;
}

// --- Frame header / decoder ------------------------------------------------

TEST(FrameDecoderTest, RoundTripsOneFrame) {
  std::string wire;
  AppendFrame(FrameType::kHello, "payload", &wire);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 7);

  FrameDecoder dec;
  dec.Feed(wire.data(), wire.size());
  Frame f;
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, FrameType::kHello);
  EXPECT_EQ(f.payload, "payload");
  EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameDecoderTest, ReassemblesByteAtATime) {
  std::string wire;
  AppendFrame(FrameType::kStatsReport, std::string(100, 'x'), &wire);
  AppendFrame(FrameType::kAck, "", &wire);

  FrameDecoder dec;
  std::vector<Frame> frames;
  for (char c : wire) {
    dec.Feed(&c, 1);
    Frame f;
    while (dec.Next(&f) == FrameDecoder::Status::kFrame) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kStatsReport);
  EXPECT_EQ(frames[0].payload.size(), 100u);
  EXPECT_EQ(frames[1].type, FrameType::kAck);
  EXPECT_TRUE(frames[1].payload.empty());
}

TEST(FrameDecoderTest, BadMagicIsCorrupt) {
  std::string wire = "GET / HTTP/1.1\r\n\r\n";  // an HTTP client, say
  FrameDecoder dec;
  dec.Feed(wire.data(), wire.size());
  Frame f;
  EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kCorrupt);
}

TEST(FrameDecoderTest, UnknownTypeIsCorrupt) {
  std::string wire;
  AppendFrame(FrameType::kTupleBatch, "abc", &wire);
  wire[4] = static_cast<char>(250);  // type byte
  FrameDecoder dec;
  dec.Feed(wire.data(), wire.size());
  Frame f;
  EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kCorrupt);
}

TEST(FrameDecoderTest, OversizedLengthIsCorruptNotAnAllocation) {
  // A corrupt length field must never turn into a giant allocation: the
  // decoder rejects anything over its ceiling while holding only the
  // 9 header bytes.
  std::string wire;
  PutU32(kFrameMagic, &wire);
  wire.push_back(static_cast<char>(FrameType::kTupleBatch));
  PutU32(0xFFFFFFFFu, &wire);
  FrameDecoder dec;
  dec.Feed(wire.data(), wire.size());
  Frame f;
  EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kCorrupt);
  EXPECT_LE(dec.buffered(), kFrameHeaderBytes);
}

TEST(FrameDecoderTest, RespectsCustomPayloadCeiling) {
  std::string wire;
  AppendFrame(FrameType::kHello, std::string(64, 'p'), &wire);
  FrameDecoder dec(/*max_payload=*/32);
  dec.Feed(wire.data(), wire.size());
  Frame f;
  EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kCorrupt);
}

// --- Tuple batch codec -----------------------------------------------------

TEST(TupleBatchTest, RoundTrip) {
  const std::vector<Tuple> in = SomeTuples(5);
  const std::string wire = EncodeTupleBatchFrame(7, in.data(), in.size());

  FrameDecoder dec;
  dec.Feed(wire.data(), wire.size());
  Frame f;
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame);
  ASSERT_EQ(f.type, FrameType::kTupleBatch);

  TupleBatch batch;
  ASSERT_TRUE(DecodeTupleBatch(f.payload, &batch));
  EXPECT_EQ(batch.source, 7u);
  ASSERT_EQ(batch.tuples.size(), 5u);
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(batch.tuples[i].arrival_time, in[i].arrival_time);
    EXPECT_EQ(batch.tuples[i].value, in[i].value);
    EXPECT_EQ(batch.tuples[i].aux, in[i].aux);
  }
}

TEST(TupleBatchTest, RejectsTruncatedBatch) {
  const std::vector<Tuple> in = SomeTuples(3);
  const std::string wire = EncodeTupleBatchFrame(0, in.data(), in.size());
  std::string payload = wire.substr(kFrameHeaderBytes);
  payload.resize(payload.size() - 8);  // lop one double off the last tuple

  TupleBatch batch;
  EXPECT_FALSE(DecodeTupleBatch(payload, &batch));
}

TEST(TupleBatchTest, RejectsTrailingGarbage) {
  const std::vector<Tuple> in = SomeTuples(2);
  const std::string wire = EncodeTupleBatchFrame(0, in.data(), in.size());
  std::string payload = wire.substr(kFrameHeaderBytes);
  payload += "junk";

  TupleBatch batch;
  EXPECT_FALSE(DecodeTupleBatch(payload, &batch));
}

TEST(TupleBatchTest, RejectsCountPayloadMismatch) {
  const std::vector<Tuple> in = SomeTuples(2);
  const std::string wire = EncodeTupleBatchFrame(0, in.data(), in.size());
  std::string payload = wire.substr(kFrameHeaderBytes);
  // Claim 200 tuples but carry 2: the decoder must not read past the end.
  const uint32_t lie = 200;
  std::memcpy(&payload[4], &lie, sizeof(lie));

  TupleBatch batch;
  EXPECT_FALSE(DecodeTupleBatch(payload, &batch));
}

TEST(TupleBatchTest, RejectsNonFiniteFields) {
  const double bads[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (double bad : bads) {
    for (int field = 0; field < 3; ++field) {
      std::vector<Tuple> in = SomeTuples(2);
      double* slot = field == 0   ? &in[1].arrival_time
                     : field == 1 ? &in[1].value
                                  : &in[1].aux;
      *slot = bad;
      const std::string wire = EncodeTupleBatchFrame(0, in.data(), in.size());
      TupleBatch batch;
      EXPECT_FALSE(
          DecodeTupleBatch(wire.substr(kFrameHeaderBytes), &batch))
          << "field " << field << " value " << bad;
    }
  }
}

TEST(TupleBatchTest, EmptyBatchIsValid) {
  const std::string wire = EncodeTupleBatchFrame(3, nullptr, 0);
  TupleBatch batch;
  ASSERT_TRUE(DecodeTupleBatch(wire.substr(kFrameHeaderBytes), &batch));
  EXPECT_EQ(batch.source, 3u);
  EXPECT_TRUE(batch.tuples.empty());
}

TEST(TupleBatchTest, FuzzedPayloadsNeverCrash) {
  // Seeded mutation fuzz: flip/insert/delete bytes of a valid payload and
  // require the decoder to either succeed or return false — anything else
  // (a crash, a sanitizer report) fails the test harness itself.
  const std::vector<Tuple> in = SomeTuples(8);
  const std::string valid =
      EncodeTupleBatchFrame(1, in.data(), in.size()).substr(kFrameHeaderBytes);
  Rng rng(20260807);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string payload = valid;
    const int mutations = static_cast<int>(rng.UniformInt(1, 8));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.UniformInt(0, 2)) {
        case 0:  // flip a byte
          if (!payload.empty()) {
            payload[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(payload.size()) - 1))] =
                static_cast<char>(rng.UniformInt(0, 255));
          }
          break;
        case 1:  // truncate
          payload.resize(static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(payload.size()))));
          break;
        default:  // append garbage
          payload.push_back(static_cast<char>(rng.UniformInt(0, 255)));
          break;
      }
    }
    TupleBatch batch;
    DecodeTupleBatch(payload, &batch);  // must not crash; result irrelevant
  }
}

TEST(TupleBatchTest, FuzzedStreamsNeverCrashDecoder) {
  // Same discipline at the framing layer: arbitrary byte streams must
  // resolve to frames, kNeedMore, or kCorrupt — never UB.
  Rng rng(7);
  for (int iter = 0; iter < 500; ++iter) {
    std::string wire;
    const int len = static_cast<int>(rng.UniformInt(0, 64));
    for (int i = 0; i < len; ++i) {
      wire.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    // Half the time, lead with valid magic so deeper checks are reached.
    if (rng.Bernoulli(0.5)) {
      std::string magic;
      PutU32(kFrameMagic, &magic);
      wire = magic + wire;
    }
    FrameDecoder dec;
    dec.Feed(wire.data(), wire.size());
    Frame f;
    while (dec.Next(&f) == FrameDecoder::Status::kFrame) {
    }
  }
}

// --- Stream splitting -----------------------------------------------------
// The decoder consumes by advancing a read offset and compacts once per
// Feed, so a frame may start, end or straddle anywhere in a write. Every
// way of cutting one stream must decode to the frames a one-shot feed
// gives, and end in kNeedMore.

/// A mixed stream: tuple batches of 0-64 tuples between control frames.
std::string MixedStream(Rng* rng, int frames) {
  std::string wire;
  for (int i = 0; i < frames; ++i) {
    if (rng->Bernoulli(0.6)) {
      const std::vector<Tuple> tuples =
          SomeTuples(static_cast<size_t>(rng->UniformInt(0, 64)));
      wire += EncodeTupleBatchFrame(
          static_cast<uint32_t>(rng->UniformInt(0, 1000)), tuples.data(),
          tuples.size());
    } else {
      const auto type = static_cast<FrameType>(
          rng->UniformInt(static_cast<int>(FrameType::kHello),
                          static_cast<int>(FrameType::kHelloAck)));
      AppendFrame(type,
                  std::string(static_cast<size_t>(rng->UniformInt(0, 40)),
                              static_cast<char>('a' + i % 26)),
                  &wire);
    }
  }
  return wire;
}

/// Feeds `wire` to one decoder in chunks ending at each of `cuts` (then at
/// the end) and drains it after every chunk.
std::vector<Frame> DecodeCut(const std::string& wire,
                             const std::vector<size_t>& cuts) {
  FrameDecoder dec;
  std::vector<Frame> frames;
  Frame f;
  size_t begin = 0;
  for (size_t i = 0; i <= cuts.size(); ++i) {
    const size_t end = i < cuts.size() ? cuts[i] : wire.size();
    dec.Feed(wire.data() + begin, end - begin);
    begin = end;
    FrameDecoder::Status st;
    while ((st = dec.Next(&f)) == FrameDecoder::Status::kFrame) {
      frames.push_back(f);
    }
    EXPECT_EQ(st, FrameDecoder::Status::kNeedMore);
  }
  EXPECT_EQ(dec.buffered(), 0u);
  return frames;
}

void ExpectSameFrames(const std::vector<Frame>& want,
                      const std::vector<Frame>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].type, want[i].type) << "frame " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "frame " << i;
  }
}

TEST(FrameDecoderTest, EverySingleSplitDecodesLikeOneShot) {
  Rng rng(20261017);
  const std::string wire = MixedStream(&rng, 24);
  const std::vector<Frame> want = DecodeCut(wire, {});
  ASSERT_EQ(want.size(), 24u);
  // Every batch in the stream is a valid tuple payload.
  TupleBatch batch;
  for (const Frame& f : want) {
    if (f.type == FrameType::kTupleBatch) {
      EXPECT_TRUE(DecodeTupleBatch(f.payload, &batch));
    }
  }
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    ExpectSameFrames(want, DecodeCut(wire, {cut}));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(FrameDecoderTest, RandomChunksDecodeLikeOneShot) {
  Rng rng(5000);
  for (int iter = 0; iter < 200; ++iter) {
    const std::string wire = MixedStream(&rng, 60);
    const std::vector<Frame> want = DecodeCut(wire, {});
    std::vector<size_t> cuts;
    for (size_t at = 0;;) {
      // Log-uniform over 1-5000 bytes: byte-sized and multi-frame chunks
      // both come up often.
      at += static_cast<size_t>(std::exp(rng.Uniform(0.0, std::log(5000.0))));
      if (at >= wire.size()) break;
      cuts.push_back(at);
    }
    SCOPED_TRACE("iteration " + std::to_string(iter));
    ExpectSameFrames(want, DecodeCut(wire, cuts));
    if (::testing::Test::HasFailure()) return;
  }
}

// --- Control-plane wire messages -------------------------------------------

TEST(ClusterWireTest, HelloRoundTrip) {
  NodeHello in;
  in.node_id = 3;
  in.workers = 4;
  in.headroom = 0.97;
  in.nominal_cost = 0.97 / 190.0;
  in.period = 1.0;
  const std::string wire = EncodeHelloFrame(in);

  FrameDecoder dec;
  dec.Feed(wire.data(), wire.size());
  Frame f;
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame);
  ASSERT_EQ(f.type, FrameType::kHello);

  NodeHello out;
  ASSERT_TRUE(DecodeHello(f.payload, &out));
  EXPECT_EQ(out.node_id, in.node_id);
  EXPECT_EQ(out.workers, in.workers);
  // Exact bit round-trip: the identity of the distributed loop depends on
  // doubles crossing the wire unmolested.
  EXPECT_EQ(out.headroom, in.headroom);
  EXPECT_EQ(out.nominal_cost, in.nominal_cost);
  EXPECT_EQ(out.period, in.period);
}

TEST(ClusterWireTest, StatsReportRoundTrip) {
  NodeStatsReport in;
  in.node_id = 1;
  in.seq = 42;
  in.deltas.now = 17.0;
  in.deltas.offered = 1234;
  in.deltas.admitted = 1000;
  in.deltas.drained_base_load = 5.125;
  in.deltas.busy_seconds = 5.0625;
  in.deltas.queue = 33.5;
  in.deltas.delay_sum = 99.75;
  in.deltas.delay_count = 321;
  in.alpha = 0.4375;
  in.offered_total = 99999;
  in.entry_shed_total = 11111;
  in.ring_dropped_total = 7;
  in.queue_shed_total = 55;
  in.departed_total = 88881;
  const std::string wire = EncodeStatsReportFrame(in);

  NodeStatsReport out;
  ASSERT_TRUE(DecodeStatsReport(wire.substr(kFrameHeaderBytes), &out));
  EXPECT_EQ(out.node_id, in.node_id);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.deltas.now, in.deltas.now);
  EXPECT_EQ(out.deltas.offered, in.deltas.offered);
  EXPECT_EQ(out.deltas.admitted, in.deltas.admitted);
  EXPECT_EQ(out.deltas.drained_base_load, in.deltas.drained_base_load);
  EXPECT_EQ(out.deltas.busy_seconds, in.deltas.busy_seconds);
  EXPECT_EQ(out.deltas.queue, in.deltas.queue);
  EXPECT_EQ(out.deltas.delay_sum, in.deltas.delay_sum);
  EXPECT_EQ(out.deltas.delay_count, in.deltas.delay_count);
  EXPECT_EQ(out.alpha, in.alpha);
  EXPECT_EQ(out.offered_total, in.offered_total);
  EXPECT_EQ(out.entry_shed_total, in.entry_shed_total);
  EXPECT_EQ(out.ring_dropped_total, in.ring_dropped_total);
  EXPECT_EQ(out.queue_shed_total, in.queue_shed_total);
  EXPECT_EQ(out.departed_total, in.departed_total);
}

TEST(ClusterWireTest, ActuationAndAckRoundTrip) {
  ClusterActuation a;
  a.seq = 9;
  a.v = 123.456789;
  a.target_delay = 2.0;
  a.queue_shed = true;
  a.cost_aware = true;
  ClusterActuation a2;
  ASSERT_TRUE(
      DecodeActuation(EncodeActuationFrame(a).substr(kFrameHeaderBytes), &a2));
  EXPECT_EQ(a2.seq, a.seq);
  EXPECT_EQ(a2.v, a.v);
  EXPECT_EQ(a2.target_delay, a.target_delay);
  EXPECT_TRUE(a2.queue_shed);
  EXPECT_TRUE(a2.cost_aware);

  a.queue_shed = false;
  a.cost_aware = false;
  ASSERT_TRUE(
      DecodeActuation(EncodeActuationFrame(a).substr(kFrameHeaderBytes), &a2));
  EXPECT_FALSE(a2.queue_shed);
  EXPECT_FALSE(a2.cost_aware);

  ActuationAck k;
  k.node_id = 2;
  k.seq = 9;
  k.applied = 120.0;
  k.alpha = 0.25;
  k.queue_shed = 17.5;
  ActuationAck k2;
  ASSERT_TRUE(DecodeAck(EncodeAckFrame(k).substr(kFrameHeaderBytes), &k2));
  EXPECT_EQ(k2.node_id, k.node_id);
  EXPECT_EQ(k2.seq, k.seq);
  EXPECT_EQ(k2.applied, k.applied);
  EXPECT_EQ(k2.alpha, k.alpha);
  EXPECT_EQ(k2.queue_shed, k.queue_shed);
}

TEST(ClusterWireTest, RejectsUnknownPlanFlags) {
  ClusterActuation a;
  a.target_delay = 2.0;
  std::string payload = EncodeActuationFrame(a).substr(kFrameHeaderBytes);
  // flags live after seq (u32) + v (f64) + target_delay (f64).
  payload[4 + 8 + 8] = 4;  // an unknown flag bit
  ClusterActuation out;
  EXPECT_FALSE(DecodeActuation(payload, &out));
}

TEST(ClusterWireTest, RejectsInvalidAckQueueShed) {
  ActuationAck out;
  ActuationAck negative;
  negative.applied = 100.0;
  negative.queue_shed = -1.0;  // victims cannot be negative
  EXPECT_FALSE(DecodeAck(
      EncodeAckFrame(negative).substr(kFrameHeaderBytes), &out));

  ActuationAck poisoned;
  poisoned.applied = 100.0;
  poisoned.queue_shed = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DecodeAck(
      EncodeAckFrame(poisoned).substr(kFrameHeaderBytes), &out));
}

TEST(ClusterWireTest, RejectsNonFiniteControlFloats) {
  const double nan = std::numeric_limits<double>::quiet_NaN();

  NodeStatsReport r;
  r.deltas.queue = nan;  // would poison the aggregate plant silently
  NodeStatsReport r2;
  EXPECT_FALSE(
      DecodeStatsReport(EncodeStatsReportFrame(r).substr(kFrameHeaderBytes),
                        &r2));

  ClusterActuation a;
  a.v = nan;
  ClusterActuation a2;
  EXPECT_FALSE(
      DecodeActuation(EncodeActuationFrame(a).substr(kFrameHeaderBytes), &a2));

  ActuationAck k;
  k.applied = -std::numeric_limits<double>::infinity();
  ActuationAck k2;
  EXPECT_FALSE(DecodeAck(EncodeAckFrame(k).substr(kFrameHeaderBytes), &k2));
}

TEST(ClusterWireTest, RejectsTruncationAndTrailingBytes) {
  // Must satisfy the decoder's plant invariants (workers >= 1, positive
  // headroom/cost/period) so only the byte-level mutations cause rejects.
  NodeHello h;
  h.node_id = 1;
  h.workers = 2;
  h.headroom = 0.97;
  h.nominal_cost = 0.005;
  h.period = 1.0;
  const std::string payload = EncodeHelloFrame(h).substr(kFrameHeaderBytes);

  NodeHello out;
  EXPECT_FALSE(DecodeHello(payload.substr(0, payload.size() - 1), &out));
  EXPECT_FALSE(DecodeHello(payload + "x", &out));
  EXPECT_TRUE(DecodeHello(payload, &out));
}

TEST(ClusterWireTest, FuzzedControlPayloadsNeverCrash) {
  NodeStatsReport r;
  r.deltas.offered = 1000;
  r.deltas.queue = 10.0;
  const std::string valid =
      EncodeStatsReportFrame(r).substr(kFrameHeaderBytes);
  Rng rng(99);
  for (int iter = 0; iter < 1000; ++iter) {
    std::string payload = valid;
    const size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(payload.size()) - 1));
    payload[pos] = static_cast<char>(rng.UniformInt(0, 255));
    if (rng.Bernoulli(0.3)) {
      payload.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(payload.size()))));
    }
    NodeStatsReport out;
    DecodeStatsReport(payload, &out);  // must not crash
    NodeHello hout;
    DecodeHello(payload, &hout);
    ClusterActuation aout;
    DecodeActuation(payload, &aout);
    ActuationAck kout;
    DecodeAck(payload, &kout);
  }
}

}  // namespace
}  // namespace ctrlshed
