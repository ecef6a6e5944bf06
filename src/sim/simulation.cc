#include "sim/simulation.h"

#include <memory>
#include <utility>

#include "common/macros.h"

namespace ctrlshed {

void Simulation::Schedule(SimTime t, std::function<void()> action) {
  CS_CHECK_MSG(t >= now_, "cannot schedule into the past");
  queue_.Push(t, std::move(action));
}

void Simulation::ScheduleEvery(SimTime first, SimTime period,
                               std::function<bool(SimTime)> action) {
  CS_CHECK_MSG(period > 0.0, "period must be positive");
  periodic_.push_back(
      std::make_unique<Periodic>(Periodic{period, std::move(action)}));
  PushTick(first, periodic_.back().get());
}

void Simulation::PushTick(SimTime t, Periodic* p) {
  // The tick captures two pointers, so it stays in std::function's small
  // buffer: a period tick allocates nothing.
  queue_.Push(t, [this, p] {
    if (p->action(now_)) PushTick(now_ + p->period, p);
  });
}

void Simulation::AttachProcess(Process* p) {
  CS_CHECK(p != nullptr);
  processes_.push_back(p);
}

void Simulation::Run(SimTime end) {
  while (!queue_.empty() && queue_.NextTime() <= end) {
    Event e = queue_.Pop();
    for (Process* p : processes_) p->AdvanceTo(e.time);
    now_ = e.time;
    e.action();
  }
  for (Process* p : processes_) p->AdvanceTo(end);
  if (end > now_) now_ = end;
}

}  // namespace ctrlshed
