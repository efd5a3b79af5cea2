#include "src/net/event_queue.h"

#include <cassert>

#include "src/obs/metrics.h"

namespace edk {

namespace {

// Process-wide count of cancelled events. Each cancel is a node's own
// action, so the total is the same for any shard or thread count.
obs::Counter& CancelledCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("eventq.events_cancelled");
  return counter;
}

}  // namespace

bool EventQueue::EventHandle::Cancel() {
  if (cancelled_ == nullptr || *cancelled_) {
    return false;
  }
  *cancelled_ = true;
  // The event is dead from this moment even though it still sits in the
  // priority queue; the pop paths discard it without touching the count.
  --*live_;
  CancelledCounter().Increment();
  return true;
}

bool EventQueue::EventHandle::pending() const {
  return cancelled_ != nullptr && !*cancelled_;
}

EventQueue::EventHandle EventQueue::Schedule(double delay, Callback fn) {
  assert(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventQueue::EventHandle EventQueue::ScheduleAt(double when, Callback fn) {
  // Contract: a `when` in the past is clamped to now() rather than letting
  // the clock run backwards. The sharded-engine mailbox merge depends on
  // this: a message whose arrival lands exactly on a window boundary is
  // scheduled at the shard clock and runs in the next window.
  if (when < now_) {
    when = now_;
  }
  auto cancelled = std::make_shared<bool>(false);
  events_.push(Event{when, next_sequence_++, std::move(fn), cancelled});
  ++*live_;
  return EventHandle(std::move(cancelled), live_);
}

bool EventQueue::PeekNextTime(double* when) {
  while (!events_.empty()) {
    if (*events_.top().cancelled) {
      events_.pop();
      continue;
    }
    *when = events_.top().time;
    return true;
  }
  return false;
}

bool EventQueue::PopAndRun() {
  while (!events_.empty()) {
    // Safe to move from under the comparator: the event is popped before
    // the queue's ordering is consulted again.
    Event event = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    if (*event.cancelled) {
      continue;  // Cancel() already removed it from the live count.
    }
    --*live_;
    now_ = event.time;
    // Mark consumed before running: handles report not-pending from inside
    // the callback, and a late Cancel() is a no-op.
    *event.cancelled = true;
    event.fn();
    return true;
  }
  return false;
}

size_t EventQueue::Run() {
  size_t executed = 0;
  while (PopAndRun()) {
    ++executed;
  }
  return executed;
}

size_t EventQueue::RunUntil(double until) {
  size_t executed = 0;
  while (!events_.empty()) {
    // Skip cancelled events eagerly so the top is always live.
    if (*events_.top().cancelled) {
      events_.pop();
      continue;
    }
    if (events_.top().time > until) {
      break;
    }
    if (PopAndRun()) {
      ++executed;
    }
  }
  if (now_ < until) {
    now_ = until;
  }
  return executed;
}

bool EventQueue::Step() { return PopAndRun(); }

}  // namespace edk
