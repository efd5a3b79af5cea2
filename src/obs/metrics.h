// edk::obs — lightweight metrics & tracing for the simulation stack.
//
// A process-wide MetricsRegistry holds named counters, gauges and value
// histograms that the hot layers (sim, net, semantic, workload)
// increment, plus wall-clock phase timings kept strictly apart from the
// simulation-derived values. The split matters for reproducibility:
//
//   * Deterministic section ("counters"/"gauges"/"histograms" in the JSON
//     export): values are pure functions of the work performed — for a
//     fixed seed they are bit-identical for any --threads value and any
//     scheduling order. This holds because every primitive folds its
//     updates with a commutative operation (sum for counters and
//     histogram bins, max for gauges), so concurrent increments from the
//     edk_exec pool land in the same totals regardless of interleaving.
//   * Wall section ("wall" in the JSON export): PhaseTimer measurements,
//     and environment-dependent counters (Domain::kEnv — e.g. trace-cache
//     hits, generation work that is skipped on a warm cache). These vary
//     run to run and must be excluded from bit-comparisons.
//
// Counters are sharded across cache-line-sized cells indexed by a
// per-thread slot, so the edk_exec pool can increment without contention;
// Value() sums the cells. Histograms reuse edk::Histogram under a mutex
// (bin increments commute, so totals stay deterministic).
//
// Hot paths fetch a Counter*/Gauge* once (registration takes a mutex) and
// increment through the pointer. Reset() zeroes values but never
// invalidates previously returned pointers.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/stats.h"

namespace edk::obs {

// Monotonic event counter, sharded to keep concurrent increments off the
// same cache line. Increment() is wait-free after the first registry
// lookup; Value() is a relaxed sum and should be read once writers have
// quiesced (e.g. after a ParallelFor join).
class Counter {
 public:
  static constexpr size_t kShards = 32;

  void Increment(uint64_t n = 1);
  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::array<Cell, kShards> cells_;
};

// Point-in-time value. Instrumentation that can run concurrently must use
// UpdateMax (max is commutative, so the final value is deterministic);
// Set/Add are for single-threaded contexts only.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  // Raises the gauge to `v` if it is currently lower.
  void UpdateMax(int64_t v);
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-range value/latency histogram. Thread-safe; bin counts are sums,
// so concurrent Record() calls fold deterministically.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, size_t bins);

  void Record(double x);
  // Consistent copy of the underlying histogram.
  Histogram Snapshot() const;
  void Reset();

 private:
  const double lo_;
  const double hi_;
  const size_t bins_;
  mutable std::mutex mu_;
  Histogram histogram_;
};

// Where a counter's value is exported. kDeterministic values are functions
// of (seed, workload) only; kEnv values depend on the run environment
// (disk caches, retries, ...) and are exported inside the "wall" section.
enum class Domain {
  kDeterministic,
  kEnv,
};

// Aggregated wall-clock measurements of one named phase.
struct WallPhase {
  uint64_t count = 0;
  double total_seconds = 0;
  double max_seconds = 0;
};

// Structured, consistent copy of a registry's values — the form the live
// stats protocol (DESIGN.md §6k) ships over the wire. Every vector is
// sorted by name (the registry maps are ordered), so two snapshots of the
// same registry can be diffed by a linear merge.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    double lo = 0;
    double hi = 0;
    uint64_t total = 0;
    uint64_t underflow = 0;
    uint64_t overflow = 0;
    std::vector<uint64_t> counts;
  };
  std::vector<std::pair<std::string, uint64_t>> counters;      // Deterministic.
  std::vector<std::pair<std::string, uint64_t>> env_counters;  // Wall section.
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramData> histograms;      // Deterministic.
  std::vector<HistogramData> env_histograms;  // Wall section.
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry used by library instrumentation.
  static MetricsRegistry& Global();

  // Find-or-create by name. Returned references stay valid for the
  // registry's lifetime (Reset() zeroes values, it never removes metrics).
  Counter& GetCounter(std::string_view name, Domain domain = Domain::kDeterministic);
  Gauge& GetGauge(std::string_view name);
  // `lo`/`hi`/`bins` apply on first creation; later calls with the same
  // name return the existing histogram unchanged. Domain::kEnv histograms
  // (e.g. real-socket request latency) export under the "wall" section and
  // never participate in determinism comparisons.
  HistogramMetric& GetHistogram(std::string_view name, double lo, double hi,
                                size_t bins,
                                Domain domain = Domain::kDeterministic);

  // Accumulates one wall-clock measurement of `name` (see PhaseTimer).
  void RecordWallSeconds(std::string_view name, double seconds);

  // Zeroes every value (counters, gauges, histogram bins, wall phases)
  // without invalidating references handed out earlier. Also clears the
  // SnapshotDelta baseline, so the next delta reports from zero.
  void Reset();

  // Consistent structured copy of every metric, all domains.
  MetricsSnapshot Snapshot() const;

  // Values accumulated since the previous SnapshotDelta() call (or since
  // construction/Reset() for the first call): counters and histogram
  // bucket counts are differences, gauges are point-in-time values copied
  // as-is. Thread-safe against concurrent increments — an increment that
  // races the snapshot lands in this delta or the next one, never in both
  // and never in neither, so the deltas plus a final call always sum to
  // the cumulative totals. Scrapers use this to report rates instead of
  // lifetime counts.
  MetricsSnapshot SnapshotDelta();

  // Deterministic-ordered JSON snapshot:
  //   {"counters": {...}, "gauges": {...}, "histograms": {...},
  //    "wall": {"phases": {...}, "env_counters": {...}}}
  // Everything under "wall" is run-environment-dependent; the rest is
  // bit-stable for a fixed seed regardless of thread count.
  void WriteJson(std::ostream& os) const;
  bool WriteJsonToFile(const std::string& path) const;
  // Flat CSV (section,kind,name,field,value), same ordering guarantees.
  void WriteCsv(std::ostream& os) const;

  // The deterministic sections of WriteJson only (no "wall"): counters,
  // gauges and histograms, sorted by name. Two runs of the same seeded
  // workload must produce byte-identical strings for any shard/thread
  // count — the comparison the sharded-engine equivalence tests make.
  std::string DeterministicJson() const;

 private:
  // Emits the counters/gauges/histograms sections; caller holds mu_.
  void WriteDeterministicSections(std::ostream& os) const;
  // Builds the structured copy; caller holds mu_.
  MetricsSnapshot SnapshotLocked() const;

  mutable std::mutex mu_;
  // std::map keeps the export order sorted and the nodes pointer-stable.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Counter, std::less<>> env_counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, HistogramMetric, std::less<>> histograms_;
  std::map<std::string, HistogramMetric, std::less<>> env_histograms_;
  std::map<std::string, WallPhase, std::less<>> wall_;
  // Baseline of the previous SnapshotDelta() call; guarded by mu_.
  MetricsSnapshot delta_prev_;
};

// Scoped wall-clock timer: records the elapsed time of a named phase into
// the registry's wall section on destruction (or explicit Stop()).
//
// Contract: the constructor starts the first measurement. Stop() ends the
// running measurement, records it once, and returns the elapsed seconds;
// Stop() while nothing is running is a benign no-op returning the last
// recorded value (so an explicit Stop() followed by destruction records
// exactly once). Start() re-arms a stopped timer for another measurement
// of the same phase. Misuse never corrupts the recorded timings: Start()
// while already running keeps the original start, and a (theoretically
// impossible) backwards step of the steady clock records zero; both bump
// an `obs.phase_timer.misuse.*` counter in the kEnv domain instead.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::string name, MetricsRegistry* registry = nullptr);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  // Begins a new measurement; no-op (plus misuse counter) if one is
  // already running.
  void Start();
  // Ends and records the running measurement; see the class contract.
  double Stop();

 private:
  void RecordMisuse(const char* what);

  std::string name_;
  MetricsRegistry* registry_;
  uint64_t start_ns_;
  bool running_ = false;
  double recorded_seconds_ = -1;
};

// Registers a process-exit hook that writes Global() as JSON to `path`
// (the --metrics-out plumbing shared by bench_common and edk-trace). The
// last registered path wins; an empty path disables the dump.
void WriteGlobalMetricsAtExit(std::string path);

}  // namespace edk::obs

#endif  // SRC_OBS_METRICS_H_
