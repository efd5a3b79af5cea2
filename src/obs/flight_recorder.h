// Per-thread bounded event ring ("flight recorder") backing TraceLog.
//
// Each recording thread owns one FlightRecorder; TraceLog hands a thread
// its recorder once and the thread appends without touching any other
// thread's buffer. The ring keeps the NEWEST `capacity` events: once full,
// every append overwrites the oldest retained event and bumps a per-domain
// drop counter. Storage grows lazily up to the capacity, so an idle thread
// costs nothing and a short run never allocates the full ring.
//
// Dropping interacts with the determinism contract (see trace_log.h): the
// deterministic span stream is only guaranteed bit-identical across
// partitionings while no kSim event was dropped, which is why the drop
// counters are exported per domain — a snapshot with sim_dropped == 0 is
// provably complete.
//
// Thread safety: Append() and Collect() take the recorder's own mutex. The
// mutex is uncontended on the hot path (only the owning thread appends);
// it exists so a snapshot from another thread (end-of-run export, tests)
// reads a consistent ring, including under TSan. A ring shared by several
// writers (the TCP server's slow-request log) appends with AppendNumbered.

#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace edk::obs {

enum class TimeDomain : uint8_t {
  // Stamped with simulation time (or a deterministic ordinal): a pure
  // function of (seed, workload) — bit-identical for any partitioning.
  kSim = 0,
  // Stamped with the steady wall clock: profiling data, varies run to run.
  kWall = 1,
};

inline constexpr size_t kTraceMaxArgs = 8;

// One structured trace record. POD by design: events are copied into the
// ring, sorted during snapshots and round-tripped through the binary
// format, so everything is a fixed-width integer. Interpretation of `ts`
// and `dur` depends on the domain: kSim uses microseconds of simulation
// time (or a deterministic ordinal for instants), kWall uses nanoseconds
// of the steady clock.
struct TraceEvent {
  uint64_t ts = 0;
  uint64_t dur = 0;  // 0 = instant event.
  uint64_t id = 0;   // Span id; content-derived, never a global counter.
  uint64_t parent = 0;  // Causal parent span id; 0 = root.
  std::array<uint64_t, kTraceMaxArgs> args{};
  uint16_t name = 0;  // Index into the TraceLog name table.
  uint16_t tid = 0;   // Recording-thread slot; forced to 0 for kSim events.
  TimeDomain domain = TimeDomain::kSim;
  uint8_t arg_count = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends one event, overwriting the oldest retained event when the ring
  // is full (the overwrite is counted in dropped(event.domain)).
  void Append(const TraceEvent& event);

  // Stamps `event.id` with the recorder's next sequence number (1, 2, ...)
  // and appends it, both under the ring's lock, so the ids Collect returns
  // are strictly increasing however many threads append. The sequence
  // survives ResetWithCapacity, so a reader's "ids after N" cursor stays
  // valid.
  void AppendNumbered(TraceEvent event);

  // Copies the retained events, oldest first, onto the end of `out`.
  void Collect(std::vector<TraceEvent>* out) const;

  // Events overwritten so far, per time domain.
  uint64_t dropped(TimeDomain domain) const;

  size_t size() const;
  size_t capacity() const;

  // Empties the ring, zeroes the drop counters and adopts a new capacity
  // (shrinking the backing storage if it exceeds it).
  void ResetWithCapacity(size_t capacity);

 private:
  void AppendLocked(const TraceEvent& event);  // Caller holds mu_.

  mutable std::mutex mu_;
  size_t capacity_;
  std::vector<TraceEvent> ring_;  // Grows to capacity_, then wraps.
  size_t head_ = 0;               // Next overwrite position once full.
  uint64_t last_seq_ = 0;         // Last id AppendNumbered assigned.
  std::array<uint64_t, 2> dropped_{};  // Indexed by TimeDomain.
};

}  // namespace edk::obs

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
