#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace ctrlshed {

void EventQueue::Push(SimTime t, std::function<void()> action) {
  heap_.push_back(Event{t, next_seq_++, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

SimTime EventQueue::NextTime() const {
  CS_CHECK_MSG(!heap_.empty(), "NextTime on empty queue");
  return heap_.front().time;
}

Event EventQueue::Pop() {
  CS_CHECK_MSG(!heap_.empty(), "Pop on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

}  // namespace ctrlshed
