#ifndef CTRLSHED_RT_RT_SOURCE_H_
#define CTRLSHED_RT_RT_SOURCE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>

#include "engine/tuple.h"
#include "rt/rt_clock.h"
#include "workload/arrival_source.h"

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

/// Replays one stream's arrival process against the wall clock: a thread
/// that drives the sim's own ArrivalSource, delivering each tuple at its
/// wall deadline — trace time mapped through the RtClock's compression
/// factor. The tuples are the ones the sim's event-driven replay of the
/// same source would deliver.
///
/// The sink runs on this source's thread; with one RtArrivalSource per
/// source index the per-source SPSC ingress contract holds by
/// construction. Tuples are stamped with their scheduled trace arrival
/// time (the instant they hit the system boundary), so delay statistics
/// include any backlog the replay itself accumulates when the thread
/// oversleeps.
class RtArrivalSource {
 public:
  explicit RtArrivalSource(ArrivalSource stream);
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

 private:
  void Run();

  ArrivalSource stream_;  ///< Replay-thread-owned once started.
  const RtClock* clock_ = nullptr;
  RtBatchSink sink_;
  Telemetry* telemetry_ = nullptr;
  TraceBuffer* trace_buf_ = nullptr;  ///< Replay-thread-owned.
  std::atomic<bool> stop_{false};
  std::thread thread_;
  bool started_ = false;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_RT_RT_SOURCE_H_
