#ifndef CTRLSHED_RT_RT_CLOCK_H_
#define CTRLSHED_RT_RT_CLOCK_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/macros.h"
#include "common/sim_time.h"

namespace ctrlshed {

/// The rt plants' default pump interval in WALL seconds: how often a worker
/// drains its ingress rings, and so how often a replay thread needs to
/// deliver (RtArrivalSource) and the node's ingress needs to read.
inline constexpr double kRtPacingWallSeconds = 500e-6;

/// Maps the wall clock onto *trace time* — the time base every reused
/// component (traces, control period, per-tuple costs, delay setpoints)
/// is expressed in.
///
/// `compression` is trace-seconds per wall-second: at compression 20 a
/// 400-second experiment replays in 20 wall seconds, with all rates and
/// costs scaled consistently (the closed-loop dynamics are invariant, only
/// the absolute wall durations shrink). This is what lets CI soaks finish
/// in seconds while still racing real threads against a real clock.
///
/// The clock is immutable after Start(), so concurrent Now() calls from
/// any thread are race-free.
class RtClock {
 public:
  explicit RtClock(double compression = 1.0) : compression_(compression) {
    CS_CHECK_MSG(compression_ > 0.0, "time compression must be positive");
  }

  /// Marks trace time zero. Call once, before any thread reads the clock.
  void Start() { start_ = std::chrono::steady_clock::now(); }

  /// Trace seconds elapsed since Start().
  SimTime Now() const {
    const auto wall = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double>(wall).count() * compression_;
  }

  /// The wall-clock time point at which trace time reaches `trace_t`
  /// (for sleep_until-style pacing with no cumulative drift).
  std::chrono::steady_clock::time_point WallDeadline(SimTime trace_t) const {
    return start_ + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(trace_t / compression_));
  }

  /// Converts a trace duration to a wall duration.
  std::chrono::steady_clock::duration WallDuration(SimTime trace_dt) const {
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(trace_dt / compression_));
  }

  double compression() const { return compression_; }

 private:
  double compression_;
  std::chrono::steady_clock::time_point start_{};
};

/// Sleeps until `deadline` in chunks of at most 5 ms and returns early once
/// `stop()` is true, so a stop request is honored promptly even across long
/// waits. Callers re-check their stop condition after it returns.
template <typename StopFn>
void SleepUntilWall(std::chrono::steady_clock::time_point deadline,
                    StopFn&& stop) {
  constexpr std::chrono::steady_clock::duration kMaxChunk =
      std::chrono::milliseconds(5);
  while (!stop()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return;
    std::this_thread::sleep_for(std::min(deadline - now, kMaxChunk));
  }
}

/// True once the caller-provided stop flag (e.g. a signal handler's) is set.
inline bool StopRequested(const std::atomic<bool>* stop) {
  return stop != nullptr && stop->load(std::memory_order_relaxed);
}

}  // namespace ctrlshed

#endif  // CTRLSHED_RT_RT_CLOCK_H_
