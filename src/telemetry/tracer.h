#ifndef CTRLSHED_TELEMETRY_TRACER_H_
#define CTRLSHED_TELEMETRY_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "rt/spsc_ring.h"

namespace ctrlshed {

/// One tracer record. POD so the SPSC ring can copy it; `name` must point
/// at a string with static storage duration (instrumentation sites use
/// literals), which keeps the hot-path emit allocation-free.
struct TraceEvent {
  const char* name = nullptr;
  int64_t ts_us = 0;   ///< Start time, microseconds since the tracer epoch.
  int64_t dur_us = 0;  ///< Span duration; < 0 marks an instant event.
  /// Optional single integer argument (rendered as `"args":{arg_name:arg}`)
  /// — enough to stamp a correlation id such as the controller period seq
  /// onto a span without heap traffic. Same lifetime contract as `name`.
  const char* arg_name = nullptr;
  int64_t arg = 0;
};

class Tracer;

/// Writes `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters.
void WriteJsonString(std::ostream& out, const std::string& s);

/// The per-thread half of the tracer: a bounded SPSC ring the owning
/// thread pushes into and the exporter thread drains. Exactly one thread
/// may call Emit/Instant (the registrant) and exactly one may call Drain
/// (the exporter) — the same discipline as the ingress rings in rt/.
/// A full ring drops the event and counts it; tracing never blocks the
/// traced thread.
class TraceBuffer {
 public:
  TraceBuffer(Tracer* tracer, std::string thread_name, int tid,
              size_t capacity);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Producer side (owner thread only).
  void Emit(const TraceEvent& ev) {
    if (!ring_.TryPush(ev)) dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  void Instant(const char* name);
  void Instant(const char* name, const char* arg_name, int64_t arg);

  /// Microseconds since the owning tracer's epoch (any thread).
  int64_t NowUs() const;

  /// Consumer side (exporter thread only): moves everything available into
  /// the buffer's collected store. Returns the number of events moved.
  size_t Drain();

  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  const std::string& thread_name() const { return thread_name_; }
  int tid() const { return tid_; }
  const std::vector<TraceEvent>& collected() const { return collected_; }

 private:
  Tracer* tracer_;
  std::string thread_name_;
  int tid_;
  SpscRing<TraceEvent> ring_;
  std::atomic<uint64_t> dropped_{0};
  std::vector<TraceEvent> collected_;  ///< Exporter-thread-owned.
};

/// RAII span: records a complete ('X') trace event covering its lifetime.
/// With a null buffer (telemetry disabled) construction and destruction
/// are each a single branch — the instrumentation is free when off.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buf, const char* name) : buf_(buf), name_(name) {
    if (buf_ != nullptr) start_us_ = buf_->NowUs();
  }
  ScopedSpan(TraceBuffer* buf, const char* name, const char* arg_name,
             int64_t arg)
      : buf_(buf), name_(name), arg_name_(arg_name), arg_(arg) {
    if (buf_ != nullptr) start_us_ = buf_->NowUs();
  }
  ~ScopedSpan() { Close(); }

  /// Closes this span and opens `name` in its place on the same buffer:
  /// consecutive phases of one thread under one object. A null `name`
  /// only closes it.
  void Next(const char* name) {
    Close();
    name_ = name;
    arg_name_ = nullptr;
    if (buf_ != nullptr) start_us_ = buf_->NowUs();
  }

  /// Re-stamps the argument before the span closes (e.g. when the period
  /// seq is only known once the guarded work has run).
  void SetArg(const char* arg_name, int64_t arg) {
    arg_name_ = arg_name;
    arg_ = arg;
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Close() {
    if (buf_ != nullptr && name_ != nullptr) {
      buf_->Emit(
          {name_, start_us_, buf_->NowUs() - start_us_, arg_name_, arg_});
    }
  }

  TraceBuffer* buf_;
  const char* name_;
  const char* arg_name_ = nullptr;
  int64_t arg_ = 0;
  int64_t start_us_ = 0;
};

/// Lock-free span/event tracer. Each instrumented thread registers once
/// (mutex-protected, cold) and gets a TraceBuffer it owns as producer; an
/// exporter thread periodically drains every buffer; at shutdown the whole
/// collection serializes to Chrome trace-event JSON ("trace viewer" array
/// format), which Perfetto and chrome://tracing open directly.
class Tracer {
 public:
  /// `buffer_capacity` is the per-thread ring size in events (rounded up
  /// to a power of two by the ring).
  explicit Tracer(size_t buffer_capacity = 1 << 14);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Registers the calling thread and returns its buffer. The pointer is
  /// stable for the tracer's lifetime. Call once per thread.
  TraceBuffer* RegisterThread(const std::string& name);

  /// Interns a dynamically built span name (e.g. "op:join" from operator
  /// names owned by a query network that may die before the tracer): the
  /// returned pointer is stable for the tracer's lifetime and safe to use
  /// as TraceEvent::name. Mutex-protected and deduplicating — call once at
  /// setup, never per event.
  const char* Intern(const std::string& name);

  /// Microseconds since construction (monotonic clock; any thread).
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Drains every thread buffer into its collected store. Exporter thread
  /// (or any single coordinating thread) only.
  void Drain();

  /// Total events collected so far and total drops across all threads.
  uint64_t collected_events() const;
  uint64_t dropped_events() const;

  /// Drains, then writes the full Chrome trace-event JSON array. Call
  /// after the instrumented threads have quiesced (the writer drains each
  /// ring from the exporter role while writing).
  void WriteChromeTrace(std::ostream& out);

 private:
  std::chrono::steady_clock::time_point epoch_;
  size_t buffer_capacity_;

  mutable std::mutex mu_;  ///< Guards registration vs iteration.
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
  std::map<std::string, std::unique_ptr<std::string>> interned_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_TELEMETRY_TRACER_H_
