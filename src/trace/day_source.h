// Reading a trace one day at a time (DESIGN.md §6h).
//
// The paper's measurement analyses are day sweeps. Each is written once,
// as a template over a day source, and runs on either of the two sources
// below:
//   * TraceDaySource — the in-RAM Trace (peer-major timelines);
//   * stream::ReaderDaySource — an EDKT v2 file through stream::TraceReader,
//     one day segment decoded at a time, so memory is bounded by a day.
//
// A source offers two ways to read a day, and both sources answer them
// identically on the same data:
//   * a per-snapshot scan: fn(peer, files, count) for every peer observed
//     that day, in ascending peer order, with its sorted cache — a peer
//     observed with an empty cache is visited (count 0), an unobserved peer
//     is not. The day splits into independently scannable blocks (fixed
//     peer ranges in RAM, the file's day blocks on disk), which ScanDays
//     below runs on the exec pool;
//   * a day view: DayCaches (observed peers plus a CacheStore in the
//     CacheStore::FromTraceDay layout), or nullopt when the day is absent
//     from a file or does not decode. An absent day and a view with no
//     observed peers mean the same thing: nobody was observed.
//
// Source interface (checked by use, not by a base class, so the
// per-snapshot callback inlines — no virtual or std::function call per
// snapshot):
//   using Scratch;                      // per-worker decode buffer
//   size_t peer_count() const; size_t file_count() const;
//   int first_day() const; int last_day() const;  // {0, -1} when empty
//   size_t BlockCount(int day) const;   // 0 for a day known to be empty
//   bool ForEachSnapshotInBlock(int day, size_t block, Scratch&, Fn&&) const;
//   bool ForEachSnapshot(int day, Scratch&, Fn&&) const;  // whole day
//   std::optional<DayCaches> ReadDay(int day) const;
// The scans return false only when a file's bytes do not decode.

#ifndef SRC_TRACE_DAY_SOURCE_H_
#define SRC_TRACE_DAY_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/exec/parallel.h"
#include "src/trace/cache_store.h"
#include "src/trace/stream/parallel_scan.h"
#include "src/trace/stream/trace_reader.h"
#include "src/trace/trace.h"

namespace edk {

class TraceDaySource {
 public:
  // Snapshot files are FileIds in the trace; scans hand out uint32 copies.
  using Scratch = std::vector<uint32_t>;

  // Peers per scan block: small enough that a day of a large trace spreads
  // over the pool, large enough that per-task overhead stays negligible.
  static constexpr size_t kPeersPerBlock = 4096;

  explicit TraceDaySource(const Trace& trace) : trace_(trace) {}

  size_t peer_count() const { return trace_.peer_count(); }
  size_t file_count() const { return trace_.file_count(); }
  int first_day() const { return trace_.first_day(); }
  int last_day() const { return trace_.last_day(); }

  size_t BlockCount(int day) const {
    if (day < first_day() || day > last_day()) {
      return 0;
    }
    return (peer_count() + kPeersPerBlock - 1) / kPeersPerBlock;
  }

  template <typename Fn>
  bool ForEachSnapshotInBlock(int day, size_t block, Scratch& scratch,
                              Fn&& fn) const {
    const size_t end = std::min(peer_count(), (block + 1) * kPeersPerBlock);
    for (size_t p = block * kPeersPerBlock; p < end; ++p) {
      const CacheSnapshot* snapshot =
          trace_.timeline(PeerId(static_cast<uint32_t>(p))).SnapshotOn(day);
      if (snapshot == nullptr) {
        continue;
      }
      scratch.clear();
      for (const FileId f : snapshot->files) {
        scratch.push_back(f.value);
      }
      fn(static_cast<uint32_t>(p), scratch.data(), scratch.size());
    }
    return true;
  }

  template <typename Fn>
  bool ForEachSnapshot(int day, Scratch& scratch, Fn&& fn) const {
    for (size_t b = 0; b < BlockCount(day); ++b) {
      ForEachSnapshotInBlock(day, b, scratch, fn);
    }
    return true;
  }

  // Never nullopt: every day of an in-RAM trace reads (a row per peer).
  std::optional<DayCaches> ReadDay(int day) const {
    Scratch scratch;
    return DayCaches::Collect(day, peer_count(), 0, [&](auto add) {
      return ForEachSnapshot(day, scratch, add);
    });
  }

 private:
  const Trace& trace_;
};

namespace stream {

// The reader must outlive the source.
class ReaderDaySource {
 public:
  using Scratch = DecodeArena;

  explicit ReaderDaySource(const TraceReader& reader) : reader_(reader) {}

  size_t peer_count() const { return static_cast<size_t>(reader_.peer_count()); }
  size_t file_count() const { return static_cast<size_t>(reader_.file_count()); }
  int first_day() const { return reader_.first_day(); }
  int last_day() const { return reader_.last_day(); }

  size_t BlockCount(int day) const {
    const TraceReader::DayInfo* info = reader_.FindDay(day);
    return info == nullptr ? 0 : TraceReader::BlockCount(*info);
  }

  template <typename Fn>
  bool ForEachSnapshotInBlock(int day, size_t block, Scratch& arena,
                              Fn&& fn) const {
    const TraceReader::DayInfo* info = reader_.FindDay(day);
    return info == nullptr ||
           reader_.ForEachSnapshotInBlock(*info, block, arena,
                                          static_cast<Fn&&>(fn));
  }

  template <typename Fn>
  bool ForEachSnapshot(int day, Scratch& arena, Fn&& fn) const {
    const TraceReader::DayInfo* info = reader_.FindDay(day);
    return info == nullptr ||
           reader_.ForEachSnapshot(*info, arena, static_cast<Fn&&>(fn));
  }

  // Blocked days fill the view block-parallel (TraceReader::ReadDay).
  std::optional<DayCaches> ReadDay(int day) const {
    const TraceReader::DayInfo* info = reader_.FindDay(day);
    if (info == nullptr) {
      return std::nullopt;
    }
    return reader_.ReadDay(*info);
  }

 private:
  const TraceReader& reader_;
};

}  // namespace stream

// Scans every snapshot on days [first, last] of `source`: one task per
// (day, block) piece on the exec pool, each calling
// fn(state, day, files, count) per snapshot. Tasks lease per-worker states,
// each a copy of `init` made on first use, and the states come back in no
// particular order — so fn's accumulation, and the caller's merge of the
// returned states, must be order-free (integer sums, minima, set unions).
// Then the merged result is the serial scan's for any thread count and any
// block layout. Blocks that fail to decode contribute what they decoded.
template <typename Source, typename State, typename Fn>
std::vector<State> ScanDays(const Source& source, int first, int last,
                            const State& init, Fn&& fn) {
  struct Task {
    int day;
    size_t block;
  };
  std::vector<Task> tasks;
  for (int day = first; day <= last; ++day) {
    for (size_t b = 0; b < source.BlockCount(day); ++b) {
      tasks.push_back(Task{day, b});
    }
  }
  struct Worker {
    typename Source::Scratch scratch;
    std::optional<State> state;
  };
  stream::WorkerPool<Worker> workers;
  ParallelFor(0, tasks.size(), [&](size_t t) {
    typename stream::WorkerPool<Worker>::Lease worker(workers);
    if (!worker->state.has_value()) {
      worker->state.emplace(init);
    }
    State& state = *worker->state;
    const int day = tasks[t].day;
    source.ForEachSnapshotInBlock(
        day, tasks[t].block, worker->scratch,
        [&](uint32_t, const uint32_t* files, size_t count) {
          fn(state, day, files, count);
        });
  });
  std::vector<State> states;
  workers.ForEach([&](Worker& worker) {
    if (worker.state.has_value()) {
      states.push_back(std::move(*worker.state));
    }
  });
  return states;
}

}  // namespace edk

#endif  // SRC_TRACE_DAY_SOURCE_H_
