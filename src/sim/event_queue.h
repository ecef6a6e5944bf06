#ifndef CTRLSHED_SIM_EVENT_QUEUE_H_
#define CTRLSHED_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/sim_time.h"

namespace ctrlshed {

/// A single scheduled callback.
struct Event {
  SimTime time = 0.0;
  uint64_t seq = 0;  // tie-breaker: FIFO among equal-time events
  std::function<void()> action;
};

/// Min-heap of events ordered by (time, insertion sequence). The sequence
/// tie-breaker makes simulations deterministic when several events share a
/// timestamp. Popped events are moved out, so an action held in
/// std::function's small buffer never touches the heap allocator.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `action` at absolute time `t`.
  void Push(SimTime t, std::function<void()> action);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest event; must not be called when empty.
  SimTime NextTime() const;

  /// Removes and returns the earliest event; must not be called when empty.
  Event Pop();

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;  ///< A heap under Later (push_heap/pop_heap).
  uint64_t next_seq_ = 0;
};

}  // namespace ctrlshed

#endif  // CTRLSHED_SIM_EVENT_QUEUE_H_
