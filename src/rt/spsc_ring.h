#ifndef CTRLSHED_RT_SPSC_RING_H_
#define CTRLSHED_RT_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace ctrlshed {

/// Bounded lock-free single-producer/single-consumer ring buffer — the
/// ingress queue between one arrival thread and the RtEngine worker.
///
/// Exactly ONE thread may call TryPush and exactly ONE thread may call
/// TryPop (they may be different threads). Synchronization is a classic
/// two-index scheme: the producer publishes a slot with a release store of
/// `tail_`, the consumer acquires it before reading, and vice versa for
/// `head_`. Each side keeps a cached copy of the other side's index so the
/// hot path touches only its own cache line (no ping-pong until the ring
/// is actually near-full or near-empty).
///
/// TryPush returns false when the ring is full instead of blocking: the
/// caller counts the rejection as a drop, which feeds the loss-ratio
/// accounting (an overflowing ingress queue is load shedding by another
/// name, and the controller must see it).
template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to the next power of two (minimum 2).
  explicit SpscRing(size_t capacity) {
    CS_CHECK_MSG(capacity >= 1, "ring capacity must be at least 1");
    // Past the largest power of two the round-up below would wrap to 0
    // and never end.
    CS_CHECK_MSG(capacity <= (std::numeric_limits<size_t>::max() >> 1) + 1,
                 "ring capacity too large to round up to a power of two");
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false (and leaves the ring unchanged) when
  /// full. Takes the value by value and moves it into the slot, so both
  /// lvalues (copied at the call site) and rvalues (moved all the way
  /// through) work without a second overload.
  bool TryPush(T value) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= slots_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= slots_.size()) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer side, batched: pushes up to `n` values from `src` and
  /// returns how many were accepted (0 when full — the caller counts the
  /// rejected tail as drops). The whole run is published with a SINGLE
  /// release store of `tail_`, amortizing the fence and the consumer-side
  /// cache miss over the batch; at n == 1 it is exactly TryPush.
  size_t TryPushBatch(const T* src, size_t n) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    size_t space = slots_.size() - static_cast<size_t>(tail - cached_head_);
    if (space < n) {
      cached_head_ = head_.load(std::memory_order_acquire);
      space = slots_.size() - static_cast<size_t>(tail - cached_head_);
    }
    const size_t count = n < space ? n : space;
    for (size_t i = 0; i < count; ++i) slots_[(tail + i) & mask_] = src[i];
    if (count > 0) tail_.store(tail + count, std::memory_order_release);
    return count;
  }

  /// Consumer side. Returns false when empty.
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side, batched: pops up to `max` values into `out`, returning
  /// how many were taken (0 when empty). One release store of `head_`
  /// frees all consumed slots at once.
  size_t TryPopBatch(T* out, size_t max) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    size_t avail = static_cast<size_t>(cached_tail_ - head);
    if (avail < max) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<size_t>(cached_tail_ - head);
    }
    const size_t count = max < avail ? max : avail;
    for (size_t i = 0; i < count; ++i) out[i] = std::move(slots_[(head + i) & mask_]);
    if (count > 0) head_.store(head + count, std::memory_order_release);
    return count;
  }

  /// Snapshot of the element count; exact only when both sides are quiet.
  size_t SizeApprox() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }

  size_t capacity() const { return slots_.size(); }

 private:
  // 64 is the usual cache-line size; std::hardware_destructive_
  // interference_size is not implemented everywhere we build.
  static constexpr size_t kCacheLine = 64;

  // `slots_` itself (the vector header, read by both sides every
  // push/pop) is cold after construction, but without padding it would
  // share a cache line with `head_`'s line predecessor on some layouts;
  // the alignas on head_ below starts a fresh line, and the pad_ keeps
  // the header from being dragged into whatever precedes the ring object.
  char pad_[kCacheLine];
  std::vector<T> slots_;
  size_t mask_ = 0;

  alignas(kCacheLine) std::atomic<uint64_t> head_{0};  ///< Consumer index.
  alignas(kCacheLine) std::atomic<uint64_t> tail_{0};  ///< Producer index.
  alignas(kCacheLine) uint64_t cached_head_ = 0;  ///< Producer's view of head_.
  alignas(kCacheLine) uint64_t cached_tail_ = 0;  ///< Consumer's view of tail_.
};

}  // namespace ctrlshed

#endif  // CTRLSHED_RT_SPSC_RING_H_
