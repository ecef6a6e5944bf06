#ifndef CTRLSHED_RT_RT_SOURCE_H_
#define CTRLSHED_RT_RT_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

#include "common/rng.h"
#include "engine/tuple.h"
#include "rt/rt_clock.h"
#include "workload/arrival_source.h"
#include "workload/rate_trace.h"

namespace ctrlshed {

class Telemetry;
class TraceBuffer;

/// Largest run of already-due arrivals a replay thread delivers per sink
/// call. Catch-up bursts (oversleeps, overload) arrive in batches of up to
/// this many tuples; on-time replay wakes per arrival and delivers runs of
/// one, which keeps the batched path behaviorally identical to the seed's
/// per-tuple delivery whenever the replay is keeping up.
inline constexpr size_t kRtArrivalBatchMax = 64;

/// Batched delivery callback: `n` in [1, kRtArrivalBatchMax] tuples from
/// one source in arrival order.
using RtBatchSink = std::function<void(const Tuple* tuples, size_t n)>;

/// Replays one stream's rate trace against the wall clock: a thread that
/// draws the same arrival process as the sim-side ArrivalSource (same
/// spacing modes, same slot-boundary thinning, same payload distribution)
/// and delivers each tuple at its wall deadline — trace time mapped
/// through the RtClock's compression factor.
///
/// The sink runs on this source's thread; with one RtArrivalSource per
/// source index the per-source SPSC ingress contract holds by
/// construction. Tuples are stamped with their scheduled trace arrival
/// time (the instant they hit the system boundary), so delay statistics
/// include any backlog the replay itself accumulates when the thread
/// oversleeps.
class RtArrivalSource {
 public:
  RtArrivalSource(int source_index, RateTrace trace,
                  ArrivalSource::Spacing spacing, uint64_t seed);
  ~RtArrivalSource();

  RtArrivalSource(const RtArrivalSource&) = delete;
  RtArrivalSource& operator=(const RtArrivalSource&) = delete;

  /// Installs a telemetry session (non-owning; must outlive the source).
  /// The replay thread registers itself and traces a span per delivery.
  /// Must be called before Start.
  void SetTelemetry(Telemetry* telemetry);

  /// Launches the replay thread. `clock` must be started and outlive this
  /// source; `sink` is invoked on the replay thread.
  void Start(const RtClock* clock, RtBatchSink sink);

  /// Signals the thread and joins it. Idempotent.
  void Stop();

  /// True once the trace has been replayed to its end.
  bool exhausted() const { return exhausted_.load(std::memory_order_acquire); }

  /// Tuples delivered so far (monotonic, any thread may read).
  uint64_t generated() const {
    return generated_.load(std::memory_order_relaxed);
  }

  int source_index() const { return source_index_; }
  const RateTrace& trace() const { return trace_; }

 private:
  void Run();

  int source_index_;
  RateTrace trace_;
  ArrivalSource::Spacing spacing_;
  Rng rng_;

  const RtClock* clock_ = nullptr;
  RtBatchSink sink_;
  Telemetry* telemetry_ = nullptr;
  TraceBuffer* trace_buf_ = nullptr;  ///< Replay-thread-owned.
  std::atomic<bool> stop_{false};
  std::atomic<bool> exhausted_{false};
  std::atomic<uint64_t> generated_{0};
  std::thread thread_;
  bool started_ = false;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_RT_RT_SOURCE_H_
