#ifndef CTRLSHED_RT_RT_SOURCE_H_
#define CTRLSHED_RT_RT_SOURCE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>

#include "engine/tuple.h"
#include "rt/rt_clock.h"
#include "workload/arrival_source.h"

namespace ctrlshed {

class Telemetry;
class TraceBuffer;

/// Largest run of due arrivals a replay thread delivers per sink call. A
/// wake that finds more due (a dense stream's pacing interval, a catch-up
/// after an oversleep) splits them into calls of at most this many tuples.
inline constexpr size_t kRtArrivalBatchMax = 64;

/// Batched delivery callback: `n` in [1, kRtArrivalBatchMax] tuples from
/// one source in arrival order.
using RtBatchSink = std::function<void(const Tuple* tuples, size_t n)>;

/// Replays one stream's arrival process against the wall clock: a thread
/// that drives the sim's own ArrivalSource, trace time mapped through the
/// RtClock's compression factor. The tuples are the ones the sim's
/// event-driven replay of the same source would deliver.
///
/// The thread wakes at most once per pacing interval — the plant's pump
/// interval, since a worker injects only at its pumps — and delivers
/// everything due by that wake: it sleeps until the later of the next
/// arrival's wall deadline and one interval after its previous wake, reads
/// the trace horizon once, and pops every arrival at or before it. A
/// dense stream thus delivers an interval's worth of arrivals per wake; a
/// sparse one, whose gaps exceed the interval, still wakes per arrival,
/// on time.
///
/// The sink runs on this source's thread; with one RtArrivalSource per
/// source index the per-source SPSC ingress contract holds by
/// construction. Tuples are stamped with their scheduled trace arrival
/// time (the instant they hit the system boundary), so delay statistics
/// include the wait for the next wake, and any backlog the replay
/// accumulates when the thread oversleeps.
class RtArrivalSource {
 public:
  /// `pacing_wall_seconds` (> 0) is the shortest wall time between wakes.
  explicit RtArrivalSource(
      ArrivalSource stream,
      double pacing_wall_seconds = kRtPacingWallSeconds);
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

  /// Times the replay thread woke to deliver. Read after Stop.
  uint64_t wakeups() const { return wakeups_; }

 private:
  void Run();

  ArrivalSource stream_;  ///< Replay-thread-owned once started.
  double pacing_wall_seconds_;
  uint64_t wakeups_ = 0;  ///< Replay-thread-owned once started.
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
