// Shared pieces of the benchmark binary (edkbench): run options, the result every
// workload fills, the span tracer of the traced mode, and small helpers.
//
// edkbench times calls into the library modules from outside. It adds no
// instrumentation to them: per-layer numbers come from spans recorded here,
// around each call, and from the counters the modules already export
// (StatsRep, MetricsRegistry snapshots, the *Stats / *Report structs).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // Scratch files (traces, span dumps) go here.
};

// What one workload run reports. `metrics` holds every number the run
// measured, by its BENCHMARK.json name; the wrapper picks the end-to-end or
// the per-layer set from it.
struct Result {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // Correctness failures, one line each.
  uint64_t digest = 0;                // Seed-determined output digest.
  std::vector<std::string> notes;     // Human-readable lines for stderr.

  void Fail(std::string what);
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
};

// Spans around layer calls. A disabled tracer records nothing and costs one
// branch per span. Layer names are this repository's modules ("netio",
// "net", "crawler", "workload", "trace", "trace.stream", "analysis",
// "semantic", "sim"); the root span "workload.run" covers the whole run.
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string call;
    double start_s = 0;
    double end_s = 0;
    int64_t parent = -1;  // Index of the enclosing span, -1 for the root.
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view layer, std::string_view call);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  Scope Trace(std::string_view layer, std::string_view call) {
    return Scope(this, layer, call);
  }

  // Self time per layer: each span's duration minus the part of it its
  // child spans cover, summed by layer, after the moves below.
  std::map<std::string, double> SelfSeconds() const;
  // Re-attributes `seconds` of `from`'s self time to `to`, for a layer that
  // runs inside another layer's call and reports its own time (the sim
  // engine inside RunShardedGossip). No-op when disabled.
  void MoveSelfTime(const std::string& from, const std::string& to,
                    double seconds);
  // Writes every span as JSON (name, start, end, parent).
  bool WriteJson(const std::string& path) const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
  std::map<std::string, double> moved_;
};

double SecondsSince(Clock::time_point start);
// CPU time of this process, all threads, in seconds. Time the host takes
// from a virtual core (steal) is not in it, so it measures the program's
// work where wall time also measures the host's other tenants.
double ProcessCpuSeconds();
// Median of `values` (0 when empty).
double Median(std::vector<double> values);
// Peak resident set of this process in MiB (getrusage).
double PeakRssMb();
// FNV-1a over `bytes`, chained from `hash`.
uint64_t HashBytes(uint64_t hash, std::string_view bytes);
uint64_t HashValue(uint64_t hash, uint64_t value);
inline constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;

Result RunServe(const Options& options, bool read_only, Tracer& tracer);
Result RunPaperPipeline(const Options& options, Tracer& tracer);
Result RunCrawlScale(const Options& options, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
