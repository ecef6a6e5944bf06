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
}

SimTime ArrivalSource::NextArrival(const RateTrace& trace, Spacing spacing,
                                   Rng& rng, SimTime t) {
  const SimTime end = trace.Duration();
  SimTime now = t;
  // Walk forward, slot by slot if necessary, until a gap fits before the
  // trace ends. Bounded by the number of slots.
  while (now < end) {
    const double rate = trace.At(now);
    const SimTime width = trace.slot_width();
    if (rate < kMinRate) {
      // Jump to the next slot boundary.
      now = (std::floor(now / width) + 1.0) * width;
      continue;
    }
    const double gap = (spacing == Spacing::kDeterministic)
                           ? 1.0 / rate
                           : rng.Exponential(rate);
    const SimTime candidate = now + gap;
    // If the gap crosses into the next slot, re-evaluate from the boundary
    // so rate changes take effect promptly (thinning-style approximation).
    const SimTime boundary = (std::floor(now / width) + 1.0) * width;
    if (candidate > boundary && trace.At(boundary) != rate) {
      now = boundary;
      continue;
    }
    return candidate;
  }
  return end + 1.0;  // exhausted
}

void ArrivalSource::ScheduleNext(Simulation* sim, SimTime t) {
  if (t > trace_.Duration()) return;
  sim->Schedule(t, [this, sim, t]() {
    Tuple tup;
    tup.source = source_index_;
    tup.arrival_time = t;
    tup.value = rng_.Uniform();
    tup.aux = rng_.Uniform();
    sink_(tup);
    ScheduleNext(sim, NextArrival(trace_, spacing_, rng_, t));
  });
}

void ArrivalSource::Start(Simulation* sim, ArrivalCallback sink) {
  CS_CHECK_MSG(!sink_, "Start called twice");
  CS_CHECK(sink != nullptr);
  sink_ = std::move(sink);
  ScheduleNext(sim, NextArrival(trace_, spacing_, rng_, 0.0));
}

}  // namespace ctrlshed
