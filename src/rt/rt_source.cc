#include "rt/rt_source.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/macros.h"
#include "telemetry/telemetry.h"

namespace ctrlshed {

RtArrivalSource::RtArrivalSource(ArrivalSource stream,
                                 double pacing_wall_seconds)
    : stream_(std::move(stream)), pacing_wall_seconds_(pacing_wall_seconds) {
  CS_CHECK_MSG(pacing_wall_seconds_ > 0.0, "pacing must be positive");
}

RtArrivalSource::~RtArrivalSource() { Stop(); }

void RtArrivalSource::SetTelemetry(Telemetry* telemetry) {
  CS_CHECK_MSG(!started_, "telemetry must be set before Start");
  telemetry_ = telemetry;
}

void RtArrivalSource::Start(const RtClock* clock, RtBatchSink sink) {
  CS_CHECK_MSG(!started_, "Start called twice");
  CS_CHECK(clock != nullptr);
  CS_CHECK(sink != nullptr);
  started_ = true;
  clock_ = clock;
  sink_ = std::move(sink);
  thread_ = std::thread([this] { Run(); });
}

void RtArrivalSource::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void RtArrivalSource::Run() {
  if (telemetry_ != nullptr) {
    trace_buf_ = telemetry_->RegisterThread(
        "rt.source" + std::to_string(stream_.source_index()));
  }
  const SimTime end = stream_.trace().Duration();
  const SimTime pacing = pacing_wall_seconds_ * clock_->compression();
  const auto stopping = [this] {
    return stop_.load(std::memory_order_acquire);
  };

  SimTime earliest = 0.0;  // trace time of the next allowed wake
  while (!stopping() && stream_.next() <= end) {
    // Sleep (in interruptible chunks) until the next arrival is due, but
    // no sooner than one pacing interval after the previous wake. Arrivals
    // already in the past are delivered at once, in order: the replay
    // catches up rather than silently thinning the trace.
    SleepUntilWall(clock_->WallDeadline(std::max(stream_.next(), earliest)),
                   stopping);
    if (stopping()) break;
    const SimTime horizon = std::min(clock_->Now(), end);
    earliest = horizon + pacing;
    ++wakeups_;

    // Deliver the arrival slept for (due, up to WallDeadline's rounding),
    // then every arrival due by the horizon, in sink calls of at most
    // kRtArrivalBatchMax. The stream is the same however it is chunked.
    do {
      Tuple batch[kRtArrivalBatchMax];
      size_t n = 0;
      do {
        batch[n++] = stream_.Pop();
      } while (n < kRtArrivalBatchMax && stream_.next() <= horizon);
      ScopedSpan span(trace_buf_, "deliver");
      sink_(batch, n);
    } while (stream_.next() <= horizon && !stopping());
  }
}

}  // namespace ctrlshed
