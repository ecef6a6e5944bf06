#include "rt/spsc_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

namespace ctrlshed {
namespace {

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRingDeathTest, CapacityThatCannotRoundUpAborts) {
  // Above 2^63 no power of two fits in size_t (a negative value cast to
  // size_t lands here): the constructor aborts instead of spinning.
  EXPECT_DEATH(SpscRing<int>(std::numeric_limits<size_t>::max()),
               "too large");
}

TEST(SpscRingTest, FifoOrderSingleThread) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_EQ(ring.SizeApprox(), 5u);
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.TryPop(&v));
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

TEST(SpscRingTest, RejectsWhenFullAndRecoversAfterPop) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(99));
  EXPECT_FALSE(ring.TryPush(99));
  int v = -1;
  ASSERT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ring.TryPush(4));  // one slot freed
  EXPECT_FALSE(ring.TryPush(5));
  // Everything still in order, nothing duplicated.
  for (int expect : {1, 2, 3, 4}) {
    ASSERT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, expect);
  }
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(SpscRingTest, WrapsAroundManyTimes) {
  SpscRing<uint64_t> ring(4);
  uint64_t next_pop = 0;
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
    if (i % 3 == 0) {  // drain slower than we fill, but never overflow
      uint64_t v = 0;
      ASSERT_TRUE(ring.TryPop(&v));
      EXPECT_EQ(v, next_pop++);
    }
    if (ring.SizeApprox() >= ring.capacity() - 1) {
      uint64_t v = 0;
      while (ring.TryPop(&v)) EXPECT_EQ(v, next_pop++);
    }
  }
}

// The satellite's two-thread stress: hammer a small ring from a producer
// thread while a consumer drains it. Every popped value must be strictly
// sequential among the values actually pushed (no loss, no duplication,
// no reordering), and pushes rejected at capacity must be exactly
// accounted for.
TEST(SpscRingTest, TwoThreadStressNoLossNoDuplication) {
  constexpr uint64_t kAttempts = 200000;
  SpscRing<uint64_t> ring(64);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> pushed{0};
  std::atomic<uint64_t> dropped{0};

  std::thread producer([&] {
    uint64_t seq = 0;  // only successfully pushed values consume a seq
    for (uint64_t i = 0; i < kAttempts; ++i) {
      if (ring.TryPush(seq)) {
        ++seq;
      } else {
        dropped.fetch_add(1, std::memory_order_relaxed);
      }
    }
    pushed.store(seq, std::memory_order_release);
    done.store(true, std::memory_order_release);
  });

  uint64_t popped = 0;
  uint64_t expect = 0;
  bool ok = true;
  while (true) {
    uint64_t v = 0;
    if (ring.TryPop(&v)) {
      ok = ok && (v == expect);
      ++expect;
      ++popped;
    } else if (done.load(std::memory_order_acquire)) {
      // Producer finished; drain what's left.
      while (ring.TryPop(&v)) {
        ok = ok && (v == expect);
        ++expect;
        ++popped;
      }
      break;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();

  EXPECT_TRUE(ok) << "popped values were not sequential";
  EXPECT_EQ(popped, pushed.load());
  EXPECT_EQ(popped + dropped.load(), kAttempts);
  // On any sane schedule the tiny ring must have both accepted and
  // rejected some pushes, or the stress proved nothing.
  EXPECT_GT(popped, 0u);
}

// Same stress but with a struct payload (the actual Tuple-sized case) to
// shake out torn reads of multi-word slots.
TEST(SpscRingTest, TwoThreadStressStructPayload) {
  struct Item {
    uint64_t seq = 0;
    double a = 0.0, b = 0.0;
  };
  constexpr uint64_t kAttempts = 100000;
  SpscRing<Item> ring(32);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> pushed{0};

  std::thread producer([&] {
    uint64_t seq = 0;
    for (uint64_t i = 0; i < kAttempts; ++i) {
      Item it;
      it.seq = seq;
      it.a = static_cast<double>(seq) * 0.5;
      it.b = static_cast<double>(seq) * 2.0;
      if (ring.TryPush(it)) ++seq;
    }
    pushed.store(seq, std::memory_order_release);
    done.store(true, std::memory_order_release);
  });

  uint64_t expect = 0;
  bool consistent = true;
  while (true) {
    Item it;
    if (ring.TryPop(&it)) {
      consistent = consistent && it.seq == expect &&
                   it.a == static_cast<double>(it.seq) * 0.5 &&
                   it.b == static_cast<double>(it.seq) * 2.0;
      ++expect;
    } else if (done.load(std::memory_order_acquire)) {
      while (ring.TryPop(&it)) {
        consistent = consistent && it.seq == expect;
        ++expect;
      }
      break;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(consistent) << "payload fields were torn or out of order";
  EXPECT_EQ(expect, pushed.load());
}

// ---------------------------------------------------------------------------
// Batched operations (TryPushBatch / TryPopBatch).

TEST(SpscRingBatchTest, PushBatchAcceptsOnlyWhatFits) {
  SpscRing<int> ring(4);
  const int src[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.TryPushBatch(src, 6), 4u);  // partial: ring has 4 slots
  EXPECT_EQ(ring.TryPushBatch(src + 4, 2), 0u);  // full: nothing accepted
  int v = -1;
  for (int expect : {0, 1, 2, 3}) {
    ASSERT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, expect);
  }
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(SpscRingBatchTest, PopBatchReturnsOnlyWhatIsThere) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.TryPush(i));
  int out[8] = {0};
  EXPECT_EQ(ring.TryPopBatch(out, 8), 3u);  // partial: only 3 queued
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.TryPopBatch(out, 8), 0u);  // empty
}

TEST(SpscRingBatchTest, BatchOpsWrapAroundCleanly) {
  SpscRing<uint64_t> ring(8);
  uint64_t next_push = 0, next_pop = 0;
  uint64_t src[5], out[7];
  for (int round = 0; round < 5000; ++round) {
    const size_t n = 1 + (static_cast<size_t>(round) % 5);
    for (size_t i = 0; i < n; ++i) src[i] = next_push + i;
    next_push += ring.TryPushBatch(src, n);
    const size_t m = ring.TryPopBatch(out, 1 + (static_cast<size_t>(round) % 7));
    for (size_t i = 0; i < m; ++i) ASSERT_EQ(out[i], next_pop + i);
    next_pop += m;
  }
  // Drain the tail; every pushed value must come out exactly once.
  uint64_t v = 0;
  while (ring.TryPop(&v)) ASSERT_EQ(v, next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscRingBatchTest, BatchOfOneMatchesScalarOps) {
  SpscRing<int> ring(4);
  const int one = 7;
  EXPECT_EQ(ring.TryPushBatch(&one, 1), 1u);
  int out = -1;
  EXPECT_EQ(ring.TryPopBatch(&out, 1), 1u);
  EXPECT_EQ(out, 7);
}

// Batched producer against a scalar consumer: the single release store
// that publishes a whole run must make every slot in the run visible.
// (Run under TSan in the sanitizer CI matrix.)
TEST(SpscRingBatchTest, TwoThreadStressBatchedProducerScalarConsumer) {
  constexpr uint64_t kAttempts = 50000;
  SpscRing<uint64_t> ring(64);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> pushed{0};

  std::thread producer([&] {
    uint64_t seq = 0;
    uint64_t batch[9];
    for (uint64_t i = 0; i < kAttempts; ++i) {
      const size_t n = 1 + (i % 9);
      for (size_t j = 0; j < n; ++j) batch[j] = seq + j;
      seq += ring.TryPushBatch(batch, n);
    }
    pushed.store(seq, std::memory_order_release);
    done.store(true, std::memory_order_release);
  });

  uint64_t expect = 0;
  bool ok = true;
  while (true) {
    uint64_t v = 0;
    if (ring.TryPop(&v)) {
      ok = ok && (v == expect);
      ++expect;
    } else if (done.load(std::memory_order_acquire)) {
      while (ring.TryPop(&v)) {
        ok = ok && (v == expect);
        ++expect;
      }
      break;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ok) << "popped values were not sequential";
  EXPECT_EQ(expect, pushed.load());
  EXPECT_GT(expect, 0u);
}

// Scalar producer against a batched consumer: the single release store of
// head_ that frees a consumed run must never let the producer overwrite a
// slot the consumer has not finished reading.
TEST(SpscRingBatchTest, TwoThreadStressScalarProducerBatchedConsumer) {
  constexpr uint64_t kAttempts = 50000;
  SpscRing<uint64_t> ring(32);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> pushed{0};

  std::thread producer([&] {
    uint64_t seq = 0;
    for (uint64_t i = 0; i < kAttempts; ++i) {
      if (ring.TryPush(seq)) ++seq;
    }
    pushed.store(seq, std::memory_order_release);
    done.store(true, std::memory_order_release);
  });

  uint64_t expect = 0;
  bool ok = true;
  uint64_t out[11];
  while (true) {
    const size_t n = ring.TryPopBatch(out, 11);
    if (n > 0) {
      for (size_t i = 0; i < n; ++i) ok = ok && (out[i] == expect + i);
      expect += n;
    } else if (done.load(std::memory_order_acquire)) {
      const size_t m = ring.TryPopBatch(out, 11);
      if (m == 0 && ring.SizeApprox() == 0) break;
      for (size_t i = 0; i < m; ++i) ok = ok && (out[i] == expect + i);
      expect += m;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ok) << "batched pops were not sequential";
  EXPECT_EQ(expect, pushed.load());
  EXPECT_GT(expect, 0u);
}

}  // namespace
}  // namespace ctrlshed
