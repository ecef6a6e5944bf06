#ifndef CTRLSHED_WORKLOAD_ARRIVAL_SOURCE_H_
#define CTRLSHED_WORKLOAD_ARRIVAL_SOURCE_H_

#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "common/sim_time.h"
#include "engine/tuple.h"
#include "sim/simulation.h"
#include "workload/rate_trace.h"

namespace ctrlshed {

/// Callback that receives each generated tuple at its arrival time.
using ArrivalCallback = std::function<void(const Tuple&)>;

/// The arrival process of one stream source, generated from a rate trace.
/// Every replay drives this one process: the sim schedules it as
/// simulation events (Start), and the wall-clock replays (RtArrivalSource,
/// `ctrlshed feed`) pop it against their deadlines (next/Pop).
///
/// Two spacing modes are supported: deterministic (tuples exactly 1/rate
/// apart — used for system identification, where the paper feeds clean step
/// and sine inputs) and Poisson (exponential gaps — used for the
/// performance experiments). Payload values are drawn uniformly from [0,1]
/// so downstream filter selectivities are fixed. Per arrival the private
/// RNG draws the value, the aux, then the gap to the next arrival.
class ArrivalSource {
 public:
  enum class Spacing { kDeterministic, kPoisson };

  ArrivalSource(int source_index, RateTrace trace, Spacing spacing,
                uint64_t seed);
  ArrivalSource(ArrivalSource&&) = default;
  ArrivalSource& operator=(ArrivalSource&&) = default;
  ArrivalSource(const ArrivalSource&) = delete;
  ArrivalSource& operator=(const ArrivalSource&) = delete;

  /// Schedules this source's arrivals on `sim`, delivering each tuple to
  /// `sink`: one pending event at a time, the next scheduled after the
  /// sink returns. Must be called once, before Simulation::Run; the source
  /// must not move afterwards.
  void Start(Simulation* sim, ArrivalCallback sink);

  /// Time of the next arrival; past trace().Duration() once exhausted.
  SimTime next() const { return next_; }

  /// The next arrival's tuple, payload drawn; steps to the one after.
  Tuple Pop();

  int source_index() const { return source_index_; }
  const RateTrace& trace() const { return trace_; }

 private:
  /// The next arrival time strictly after `t`, skipping zero-rate slots;
  /// a time past the trace end when exhausted.
  SimTime NextArrival(SimTime t);
  void SchedulePending();

  int source_index_;
  RateTrace trace_;
  Spacing spacing_;
  Rng rng_;
  SimTime next_ = 0.0;
  Simulation* sim_ = nullptr;
  ArrivalCallback sink_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_WORKLOAD_ARRIVAL_SOURCE_H_
