#include "workload/arrival_source.h"

#include <cmath>
#include <utility>

#include "common/macros.h"

namespace ctrlshed {

namespace {
// Rates below this are treated as "no arrivals in this slot".
constexpr double kMinRate = 1e-9;
}  // namespace

ArrivalSource::ArrivalSource(int source_index, RateTrace trace, Spacing spacing,
                             uint64_t seed)
    : source_index_(source_index),
      trace_(std::move(trace)),
      spacing_(spacing),
      rng_(seed) {
  CS_CHECK_MSG(!trace_.empty(), "arrival source needs a non-empty trace");
  next_ = NextArrival(0.0);
}

SimTime ArrivalSource::NextArrival(SimTime t) {
  const SimTime end = trace_.Duration();
  SimTime now = t;
  // Walk forward, slot by slot if necessary, until a gap fits before the
  // trace ends. Bounded by the number of slots.
  while (now < end) {
    const double rate = trace_.At(now);
    const SimTime width = trace_.slot_width();
    if (rate < kMinRate) {
      // Jump to the next slot boundary.
      now = (std::floor(now / width) + 1.0) * width;
      continue;
    }
    const double gap = (spacing_ == Spacing::kDeterministic)
                           ? 1.0 / rate
                           : rng_.Exponential(rate);
    const SimTime candidate = now + gap;
    // If the gap crosses into the next slot, re-evaluate from the boundary
    // so rate changes take effect promptly (thinning-style approximation).
    const SimTime boundary = (std::floor(now / width) + 1.0) * width;
    if (candidate > boundary && trace_.At(boundary) != rate) {
      now = boundary;
      continue;
    }
    return candidate;
  }
  return end + 1.0;  // exhausted
}

Tuple ArrivalSource::Pop() {
  Tuple tup;
  tup.source = source_index_;
  tup.arrival_time = next_;
  tup.value = rng_.Uniform();
  tup.aux = rng_.Uniform();
  next_ = NextArrival(next_);
  return tup;
}

void ArrivalSource::SchedulePending() {
  if (next_ > trace_.Duration()) return;
  // Capturing only `this` keeps the event inside std::function's small
  // buffer: a simulated arrival allocates nothing.
  sim_->Schedule(next_, [this] {
    sink_(Pop());
    SchedulePending();
  });
}

void ArrivalSource::Start(Simulation* sim, ArrivalCallback sink) {
  CS_CHECK_MSG(!sink_, "Start called twice");
  CS_CHECK(sim != nullptr && sink != nullptr);
  sim_ = sim;
  sink_ = std::move(sink);
  SchedulePending();
}

}  // namespace ctrlshed
