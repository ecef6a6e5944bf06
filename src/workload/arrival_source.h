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

/// Generates the arrival process of one stream source from a rate trace and
/// schedules the arrivals as simulation events.
///
/// Two spacing modes are supported: deterministic (tuples exactly 1/rate
/// apart — used for system identification, where the paper feeds clean step
/// and sine inputs) and Poisson (exponential gaps — used for the
/// performance experiments). Payload values are drawn uniformly from [0,1]
/// so downstream filter selectivities are fixed.
class ArrivalSource {
 public:
  enum class Spacing { kDeterministic, kPoisson };

  ArrivalSource(int source_index, RateTrace trace, Spacing spacing,
                uint64_t seed);

  /// Schedules this source's arrivals on `sim`, delivering each tuple to
  /// `sink`. Must be called once, before Simulation::Run.
  void Start(Simulation* sim, ArrivalCallback sink);

  int source_index() const { return source_index_; }
  const RateTrace& trace() const { return trace_; }

  /// The arrival walk every replay of `trace` shares (sim and wall clock):
  /// the next arrival time strictly after `t`, skipping zero-rate slots
  /// and drawing Poisson gaps from `rng`. Returns a time past the trace
  /// end when exhausted.
  static SimTime NextArrival(const RateTrace& trace, Spacing spacing,
                             Rng& rng, SimTime t);

 private:
  void ScheduleNext(Simulation* sim, SimTime t);

  int source_index_;
  RateTrace trace_;
  Spacing spacing_;
  Rng rng_;
  ArrivalCallback sink_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_WORKLOAD_ARRIVAL_SOURCE_H_
