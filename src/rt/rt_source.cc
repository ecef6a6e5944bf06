#include "rt/rt_source.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/macros.h"
#include "telemetry/telemetry.h"

namespace ctrlshed {

RtArrivalSource::RtArrivalSource(ArrivalSource stream)
    : stream_(std::move(stream)) {}

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
  using Clock = std::chrono::steady_clock;
  if (telemetry_ != nullptr) {
    trace_buf_ = telemetry_->RegisterThread(
        "rt.source" + std::to_string(stream_.source_index()));
  }
  const SimTime end = stream_.trace().Duration();
  const auto stopping = [this] {
    return stop_.load(std::memory_order_acquire);
  };

  while (!stopping() && stream_.next() <= end) {
    // Sleep (in interruptible chunks) until the arrival is due; arrivals
    // already in the past are delivered immediately, in order — the replay
    // catches up rather than silently thinning the trace.
    SleepUntilWall(clock_->WallDeadline(stream_.next()), stopping);
    if (stopping()) break;

    // Gather every arrival that is already due into one batch: on-time
    // replay wakes per arrival (n == 1), while a catch-up burst after an
    // oversleep moves in bulk. The stream is the same however it is
    // chunked.
    Tuple batch[kRtArrivalBatchMax];
    size_t n = 0;
    do {
      batch[n++] = stream_.Pop();
    } while (n < kRtArrivalBatchMax && stream_.next() <= end &&
             Clock::now() >= clock_->WallDeadline(stream_.next()));
    ScopedSpan span(trace_buf_, "deliver");
    sink_(batch, n);
  }
}

}  // namespace ctrlshed
