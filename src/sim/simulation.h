#ifndef CTRLSHED_SIM_SIMULATION_H_
#define CTRLSHED_SIM_SIMULATION_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "sim/event_queue.h"

namespace ctrlshed {

/// A component with its own continuous activity (e.g. the query engine's
/// CPU). Before the simulation dispatches an event at time `t`, every
/// attached process is advanced to `t` so that continuous work and discrete
/// events interleave correctly.
class Process {
 public:
  virtual ~Process() = default;

  /// Performs all of the process's work up to (approximately) time `t`.
  virtual void AdvanceTo(SimTime t) = 0;
};

/// Discrete-event simulation driver: a virtual clock, an event queue, and a
/// set of continuous processes.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `action` at absolute virtual time `t` (>= now).
  void Schedule(SimTime t, std::function<void()> action);

  /// Schedules `action(t)` at `first`, then every `period` as long as the
  /// callback returns true. The simulation owns the callback; each tick
  /// re-schedules the next one right after the callback returns.
  void ScheduleEvery(SimTime first, SimTime period,
                     std::function<bool(SimTime)> action);

  /// Attaches a continuous process; the pointer must outlive the simulation.
  void AttachProcess(Process* p);

  /// Runs events in timestamp order until the queue is exhausted or the
  /// next event is past `end`; then advances time and processes to `end`.
  void Run(SimTime end);

 private:
  struct Periodic {
    SimTime period;
    std::function<bool(SimTime)> action;
  };
  void PushTick(SimTime t, Periodic* p);

  SimTime now_ = 0.0;
  EventQueue queue_;
  std::vector<Process*> processes_;
  std::vector<std::unique_ptr<Periodic>> periodic_;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_SIM_SIMULATION_H_
