#include "rt/rt_source.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/macros.h"
#include "telemetry/telemetry.h"

namespace ctrlshed {

RtArrivalSource::RtArrivalSource(int source_index, RateTrace trace,
                                 ArrivalSource::Spacing spacing, uint64_t seed)
    : source_index_(source_index),
      trace_(std::move(trace)),
      spacing_(spacing),
      rng_(seed) {
  CS_CHECK_MSG(!trace_.empty(), "arrival source needs a non-empty trace");
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
  using Clock = std::chrono::steady_clock;
  if (telemetry_ != nullptr) {
    trace_buf_ = telemetry_->RegisterThread("rt.source" +
                                            std::to_string(source_index_));
  }
  SimTime t = ArrivalSource::NextArrival(trace_, spacing_, rng_, 0.0);
  const SimTime end = trace_.Duration();
  const auto stopping = [this] {
    return stop_.load(std::memory_order_acquire);
  };

  while (!stopping() && t <= end) {
    // Sleep (in interruptible chunks) until the arrival is due; arrivals
    // already in the past are delivered immediately, in order — the replay
    // catches up rather than silently thinning the trace.
    SleepUntilWall(clock_->WallDeadline(t), stopping);
    if (stopping()) break;

    // Gather every arrival that is already due into one batch: on-time
    // replay wakes per arrival (n == 1, the seed-identical path), while a
    // catch-up burst after an oversleep moves in bulk. The payload rng
    // draws stay per tuple in the seed's order, so the generated stream
    // is identical regardless of how it is chunked.
    Tuple batch[kRtArrivalBatchMax];
    size_t n = 0;
    for (;;) {
      Tuple& tup = batch[n];
      tup = Tuple{};
      tup.source = source_index_;
      tup.arrival_time = t;
      tup.value = rng_.Uniform();
      tup.aux = rng_.Uniform();
      ++n;
      t = ArrivalSource::NextArrival(trace_, spacing_, rng_, t);
      if (n == kRtArrivalBatchMax || t > end) break;
      if (Clock::now() < clock_->WallDeadline(t)) break;
    }
    {
      ScopedSpan span(trace_buf_, "deliver");
      sink_(batch, n);
    }
    generated_.fetch_add(n, std::memory_order_relaxed);
  }
  exhausted_.store(true, std::memory_order_release);
}

}  // namespace ctrlshed
