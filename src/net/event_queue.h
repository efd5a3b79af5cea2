// One shard's event queue.
//
// A single-threaded event queue with virtual time in seconds; every queue
// the simulation runs on belongs to a shard of edk::sim::ShardedEngine,
// which reports the sim.* metrics and spans for it. Events are
// closures ordered by (time, insertion sequence), which gives two ordering
// contracts that the rest of the system (in particular the sharded-engine
// mailbox merge, see src/sim/sharded_engine.h) relies on:
//
//   1. FIFO tiebreak: events scheduled for the same timestamp run in
//      insertion order. Inserting a batch of same-time events in a chosen
//      order therefore fixes their execution order exactly.
//   2. Clamping: ScheduleAt(when < now()) clamps `when` to now() — the
//      event runs at the current time, after everything already scheduled
//      for now(), and the clock never moves backwards.

#ifndef SRC_NET_EVENT_QUEUE_H_
#define SRC_NET_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

namespace edk {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  // Handle for cancelling a scheduled event. Default-constructed handles
  // are inert.
  class EventHandle {
   public:
    EventHandle() = default;
    // Returns true if the event was still pending and is now cancelled.
    bool Cancel();
    bool pending() const;

   private:
    friend class EventQueue;
    EventHandle(std::shared_ptr<bool> cancelled, std::shared_ptr<size_t> live)
        : cancelled_(std::move(cancelled)), live_(std::move(live)) {}
    std::shared_ptr<bool> cancelled_;
    // Shares the queue's live-event counter so Cancel() can keep
    // pending_events() exact; outlives the queue harmlessly.
    std::shared_ptr<size_t> live_;
  };

  EventQueue() = default;

  double now() const { return now_; }
  size_t pending_events() const { return *live_; }

  // Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventHandle Schedule(double delay, Callback fn);
  // Schedules `fn` at absolute time `when`. A `when` in the past is clamped
  // to now(): the event runs at the current time, in FIFO position after
  // events already scheduled for now().
  EventHandle ScheduleAt(double when, Callback fn);

  // Runs events until the queue drains. Returns the number executed.
  size_t Run();
  // Runs events with time <= `until`, then advances the clock to `until`.
  size_t RunUntil(double until);
  // Executes at most one event; returns false if none is pending.
  bool Step();

  // Time of the next live (non-cancelled) event. Returns false when the
  // queue is empty. Discards cancelled events encountered at the top, so
  // it is O(1) amortised.
  bool PeekNextTime(double* when);

 private:
  struct Event {
    double time;
    uint64_t sequence;
    Callback fn;
    std::shared_ptr<bool> cancelled;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.sequence > b.sequence;
    }
  };

  bool PopAndRun();

  std::priority_queue<Event, std::vector<Event>, Later> events_;
  double now_ = 0;
  uint64_t next_sequence_ = 0;
  // Pending (non-cancelled, not yet executed) events. Shared with handles:
  // Cancel() decrements it directly, execution paths decrement on pop.
  std::shared_ptr<size_t> live_ = std::make_shared<size_t>(0);
};

}  // namespace edk

#endif  // SRC_NET_EVENT_QUEUE_H_
