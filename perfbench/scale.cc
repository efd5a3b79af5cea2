// crawl_scale: the crawl-scale paths, out of core and sharded.
//
// Set-up writes a blocked EDKT v2 trace of kPeers peers with the
// hash-driven GenerateScaleTrace model and builds a clustered population of
// kGossipPeers caches for the gossip step. One pass is
//   1. ParallelScanSnapshots over every block at kThreads threads;
//   2. ReadDay on the densest day plus the three linear streaming analyses
//      (daily activity, ranked sources of the last day, spread of one file);
//   3. RunShardedGossip at kShards shards and kThreads threads with
//      interest placement.
// The run repeats these steps in rounds and reports work_s as the sum of
// the steps' medians: one pass, without the noise of any single one.
// work_cpu_s is the median over the rounds of the process CPU time of one
// pass (each step's median over its repeats within the round). Every
// run also checks that a serial scan gives the parallel scan's checksum,
// and that 1 and kShards shards give the same DeterministicSummary on a
// reduced population.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/analysis/streaming.h"
#include "src/obs/metrics.h"
#include "src/semantic/sharded_gossip.h"
#include "src/sim/placement.h"
#include "src/trace/stream/parallel_scan.h"
#include "src/trace/stream/trace_reader.h"
#include "src/workload/geography.h"
#include "src/workload/stream_generate.h"

namespace perfbench {
namespace {

constexpr uint64_t kPeers = 2'000'000;
constexpr uint64_t kFiles = 400'000;
constexpr int kDays = 10;
constexpr uint32_t kGossipPeers = 100'000;
constexpr uint32_t kGossipFiles = 800;
constexpr uint32_t kGossipTopics = 16;
constexpr size_t kGossipRounds = 2;
// The 1-vs-kShards determinism check runs on this many peers.
constexpr uint32_t kCheckPeers = 20'000;
constexpr size_t kThreads = 4;
constexpr size_t kShards = 4;
constexpr size_t kSetupRepeats = 3;
// Rounds per run: one per kRoundSeconds of --seconds, at least kMinRounds.
constexpr double kRoundSeconds = 2.5;
constexpr size_t kMinRounds = 3;
// A scan takes well under a second at this size; each round times several.
constexpr size_t kScanRepeats = 3;

edk::ShardedGossipConfig GossipConfig(uint64_t seed, size_t shards) {
  edk::ShardedGossipConfig config;
  config.seed = seed;
  config.shards = shards;
  config.threads = kThreads;
  config.rounds = kGossipRounds;
  config.explore_every = 3;
  config.view_size = 16;
  config.gossip_length = 8;
  config.placement = edk::sim::PlacementPolicy::kInterestClustered;
  config.trajectory = false;
  config.probe_rounds = 1;
  return config;
}

struct Scan {
  bool ok = false;
  uint64_t snapshots = 0;
  uint64_t entries = 0;
  uint64_t checksum = 0;
};

uint64_t SnapshotWord(uint32_t peer, const uint32_t* files, size_t count) {
  return (static_cast<uint64_t>(peer) << 32) ^
         (count == 0 ? 0 : files[count - 1]);
}

Scan ScanSerial(const edk::stream::TraceReader& reader) {
  Scan scan;
  edk::stream::DecodeArena arena;
  for (const auto& info : reader.days()) {
    if (!reader.ForEachSnapshot(
            info, arena, [&](uint32_t peer, const uint32_t* files, size_t n) {
              ++scan.snapshots;
              scan.entries += n;
              scan.checksum ^= SnapshotWord(peer, files, n);
            })) {
      return scan;
    }
  }
  scan.ok = true;
  return scan;
}

Scan ScanParallel(const edk::stream::TraceReader& reader,
                  const std::vector<edk::stream::ScanTask>& tasks) {
  std::vector<Scan> partials(tasks.size());
  Scan scan;
  scan.ok = edk::stream::ParallelScanSnapshots(
      reader, tasks,
      [&](size_t t, uint32_t peer, const uint32_t* files, size_t n) {
        ++partials[t].snapshots;
        partials[t].entries += n;
        partials[t].checksum ^= SnapshotWord(peer, files, n);
      },
      kThreads);
  for (const Scan& p : partials) {
    scan.snapshots += p.snapshots;
    scan.entries += p.entries;
    scan.checksum ^= p.checksum;
  }
  return scan;
}

// The engine's wall phases and per-shard event counters, from the global
// registry's JSON export (the structured snapshot has no wall phases).
struct EngineWall {
  double window_loop_s = 0;
  double barrier_stall_s = 0;
  std::vector<double> shard_events;
};

double JsonNumberAfter(const std::string& json, const std::string& key,
                       const std::string& field) {
  const size_t at = json.find("\"" + key + "\"");
  if (at == std::string::npos) return 0;
  const size_t f = json.find("\"" + field + "\": ", at);
  if (f == std::string::npos) return 0;
  return std::strtod(json.c_str() + f + field.size() + 4, nullptr);
}

EngineWall ReadEngineWall() {
  EngineWall wall;
  std::ostringstream os;
  edk::obs::MetricsRegistry::Global().WriteJson(os);
  const std::string json = os.str();
  wall.window_loop_s = JsonNumberAfter(json, "sim.window_loop", "total_seconds");
  wall.barrier_stall_s =
      JsonNumberAfter(json, "sim.barrier_stall", "total_seconds");
  const auto snapshot = edk::obs::MetricsRegistry::Global().Snapshot();
  for (size_t k = 0; k < kShards; ++k) {
    const std::string name = "sim.shard" + std::to_string(k) + ".events";
    double v = 0;
    for (const auto& [n, value] : snapshot.env_counters) {
      if (n == name) v = static_cast<double>(value);
    }
    wall.shard_events.push_back(v);
  }
  return wall;
}

struct Pass {
  double total_s = 0;
  double cpu_s = 0;  // Process CPU time of one pass.
  double scan_s = 0;
  double day_view_s = 0;
  double daily_activity_s = 0;
  double ranked_sources_s = 0;
  double file_spread_s = 0;
  double gossip_s = 0;
  uint64_t digest = kHashSeed;
  uint64_t scan_checksum = 0;
  uint64_t scan_entries = 0;
  edk::ShardedGossipStats gossip;
  EngineWall engine;  // Deltas over the gossip run.
  std::string error;
};

// One pass from per-step medians over `rounds`.
double PassSeconds(const std::vector<const Pass*>& rounds) {
  double total = 0;
  for (double Pass::*step : {&Pass::scan_s, &Pass::day_view_s,
                             &Pass::daily_activity_s, &Pass::ranked_sources_s,
                             &Pass::file_spread_s, &Pass::gossip_s}) {
    std::vector<double> v;
    for (const Pass* p : rounds) v.push_back(p->*step);
    total += Median(v);
  }
  return total;
}

Pass RunPass(const edk::stream::TraceReader& reader,
             const std::vector<edk::stream::ScanTask>& tasks,
             const edk::StaticCaches& caches, const edk::Geography& geography,
             uint64_t seed, Tracer& tracer) {
  Pass pass;
  const auto start = Clock::now();
  // Runs fn `repeats` times, each in its own span; *out is the median
  // wall time, and the median CPU time goes to pass.cpu_s.
  auto timed = [&](double* out, size_t repeats, const char* layer,
                   const char* call, auto&& fn) {
    std::vector<double> times, cpu;
    for (size_t r = 0; r < repeats; ++r) {
      auto span = tracer.Trace(layer, call);
      const double cpu0 = ProcessCpuSeconds();
      const auto t0 = Clock::now();
      fn(r);
      times.push_back(SecondsSince(t0));
      cpu.push_back(ProcessCpuSeconds() - cpu0);
    }
    *out = Median(times);
    pass.cpu_s += Median(cpu);
  };

  timed(&pass.scan_s, kScanRepeats, "trace.stream", "ParallelScanSnapshots",
        [&](size_t) {
          const Scan scan = ScanParallel(reader, tasks);
          if (!scan.ok || (pass.scan_checksum != 0 &&
                           scan.checksum != pass.scan_checksum)) {
            pass.error = "parallel scan failed or is not repeatable";
          }
          pass.scan_checksum = scan.checksum;
          pass.scan_entries = scan.entries;
        });
  if (!pass.error.empty()) return pass;
  pass.digest = HashValue(pass.digest, pass.scan_checksum);
  pass.digest = HashValue(pass.digest, pass.scan_entries);

  const edk::stream::TraceReader::DayInfo* densest = nullptr;
  for (const auto& info : reader.days()) {
    if (densest == nullptr || info.file_entries > densest->file_entries) {
      densest = &info;
    }
  }
  std::string error;
  timed(&pass.day_view_s, 1, "trace.stream", "TraceReader::ReadDay",
        [&](size_t) {
          const auto view = reader.ReadDay(*densest, &error);
          if (!view.has_value()) {
            pass.error = "ReadDay failed: " + error;
            return;
          }
          pass.digest = HashValue(pass.digest, view->peers.size());
          pass.digest = HashValue(pass.digest, view->store.total_replicas());
        });
  std::vector<edk::DailyActivity> activity;
  timed(&pass.daily_activity_s, 1, "analysis",
        "StreamingDailyActivity",
        [&](size_t) { activity = edk::StreamingDailyActivity(reader); });
  for (const auto& row : activity) {
    pass.digest = HashValue(pass.digest, row.files_seen);
    pass.digest = HashValue(pass.digest, row.new_files);
  }
  std::vector<uint32_t> ranked;
  timed(&pass.ranked_sources_s, 1, "analysis",
        "StreamingRankedSourcesOnDay", [&](size_t) {
          ranked = edk::StreamingRankedSourcesOnDay(reader, reader.last_day());
        });
  for (const uint32_t r : ranked) pass.digest = HashValue(pass.digest, r);
  std::vector<double> spread;
  timed(&pass.file_spread_s, 1, "analysis",
        "StreamingFileSpreadOverTime", [&](size_t) {
          spread = edk::StreamingFileSpreadOverTime(reader, edk::FileId(0));
        });
  for (const double v : spread) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    pass.digest = HashValue(pass.digest, bits);
  }

  const EngineWall before = ReadEngineWall();
  timed(&pass.gossip_s, 1, "semantic", "RunShardedGossip", [&](size_t) {
    pass.gossip =
        edk::RunShardedGossip(caches, geography, GossipConfig(seed, kShards));
  });
  const EngineWall after = ReadEngineWall();
  pass.engine.window_loop_s = after.window_loop_s - before.window_loop_s;
  // The engine's window loop runs inside RunShardedGossip: its time is the
  // sim layer's, the rest of the call is semantic's.
  tracer.MoveSelfTime("semantic", "sim", pass.engine.window_loop_s);
  pass.engine.barrier_stall_s = after.barrier_stall_s - before.barrier_stall_s;
  for (size_t k = 0; k < kShards; ++k) {
    pass.engine.shard_events.push_back(after.shard_events[k] -
                                       before.shard_events[k]);
  }
  pass.digest = HashBytes(pass.digest, pass.gossip.DeterministicSummary());
  pass.total_s = SecondsSince(start);
  return pass;
}

}  // namespace

Result RunCrawlScale(const Options& options, Tracer& tracer) {
  Result result;
  auto& m = result.metrics;
  const std::string path =
      options.work_dir + "/scale-" + std::to_string(options.seed) + ".edk2";

  edk::ScaleTraceConfig trace_config;
  trace_config.num_peers = kPeers;
  trace_config.num_files = kFiles;
  trace_config.num_days = kDays;
  trace_config.seed = options.seed;

  // Set-up, several times: the trace file (rewritten each time) and the
  // gossip population.
  std::vector<double> setup_times, generate_times, caches_times;
  edk::StaticCaches caches;
  uint64_t bytes_written = 0;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    std::string error;
    std::optional<edk::StreamGenerateStats> gen;
    {
      auto span = tracer.Trace("workload", "GenerateScaleTrace");
      gen = edk::GenerateScaleTrace(trace_config, path, false, &error);
    }
    if (!gen.has_value()) {
      result.Fail("GenerateScaleTrace failed: " + error);
      return result;
    }
    bytes_written = gen->bytes_written;
    generate_times.push_back(SecondsSince(t0));
    const auto t1 = Clock::now();
    {
      auto span = tracer.Trace("semantic", "MakeClusteredCaches");
      caches = edk::MakeClusteredCaches(kGossipPeers, kGossipFiles,
                                        kGossipTopics, options.seed);
    }
    caches_times.push_back(SecondsSince(t1));
    setup_times.push_back(SecondsSince(t0));
  }
  m["setup_s"] = Median(setup_times);
  m["workload.stream_generate_s"] = Median(generate_times);
  m["trace.stream.write_mb_per_s"] =
      static_cast<double>(bytes_written) / 1e6 / Median(generate_times);
  m["semantic.clustered_caches_s"] = Median(caches_times);

  std::string error;
  std::optional<edk::stream::TraceReader> reader;
  {
    auto span = tracer.Trace("trace.stream", "TraceReader::Open");
    reader = edk::stream::TraceReader::Open(path, &error);
  }
  if (!reader.has_value()) {
    result.Fail("TraceReader::Open failed: " + error);
    return result;
  }
  const std::vector<edk::stream::ScanTask> tasks =
      edk::stream::MakeScanTasks(*reader);
  const edk::Geography geography = edk::Geography::PaperDistribution();

  // Serial scan: the checksum reference (and, traced, the 1-thread
  // baseline of the scan speed-up).
  Scan serial;
  double serial_s = 0;
  {
    auto span = tracer.Trace("trace.stream", "ForEachSnapshot (serial scan)");
    const auto t0 = Clock::now();
    serial = ScanSerial(*reader);
    serial_s = SecondsSince(t0);
  }
  result.Check(serial.ok, "serial scan failed");

  // The traced run alternates untraced and traced rounds within the same
  // number of rounds, so it stays well inside the run's time limit.
  const size_t rounds = std::max<size_t>(
      kMinRounds, static_cast<size_t>(std::lround(options.seconds / kRoundSeconds)));
  std::vector<Pass> passes;
  std::vector<const Pass*> untraced, traced;
  for (size_t i = 0; i < rounds; ++i) {
    const bool trace_this = options.trace && i % 2 == 1;
    Pass pass;
    if (options.trace && !trace_this) {
      auto span = tracer.Trace("bench.untraced", "crawl_scale round");
      tracer.set_enabled(false);
      pass = RunPass(*reader, tasks, caches, geography, options.seed, tracer);
      tracer.set_enabled(true);
    } else {
      pass = RunPass(*reader, tasks, caches, geography, options.seed, tracer);
    }
    result.Check(pass.error.empty(), pass.error);
    result.Check(pass.scan_checksum == serial.checksum,
                 "parallel scan checksum differs from the serial scan");
    result.Check(passes.empty() || pass.digest == passes.front().digest,
                 "crawl_scale digest differs between rounds of one seed");
    passes.push_back(std::move(pass));
  }
  for (size_t i = 0; i < passes.size(); ++i) {
    (options.trace && i % 2 == 1 ? traced : untraced).push_back(&passes[i]);
  }
  result.digest = passes.front().digest;

  // Determinism of the engine across shard counts, on a reduced population.
  {
    const edk::StaticCaches small = edk::MakeClusteredCaches(
        kCheckPeers, kGossipFiles, kGossipTopics, options.seed);
    std::string one, many;
    {
      auto span = tracer.Trace("semantic", "RunShardedGossip (1 vs 4 shards)");
      one = edk::RunShardedGossip(small, geography, GossipConfig(options.seed, 1))
                .DeterministicSummary();
      many = edk::RunShardedGossip(small, geography,
                                   GossipConfig(options.seed, kShards))
                 .DeterministicSummary();
    }
    result.Check(one == many,
                 "1-shard and 4-shard DeterministicSummary differ");
    result.digest = HashBytes(result.digest, one);
  }

  auto median_of = [&](double Pass::*field) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(p.*field);
    return Median(v);
  };
  const double gb = static_cast<double>(reader->size_bytes()) / 1e9;
  const double scan_s = median_of(&Pass::scan_s);
  const double gossip_s = median_of(&Pass::gossip_s);
  m["work_s"] = PassSeconds(untraced);
  std::vector<double> cpu;
  for (const Pass* pass : untraced) cpu.push_back(pass->cpu_s);
  m["work_cpu_s"] = Median(cpu);
  m["scan_gb_per_s"] = gb / scan_s;
  m["trace.stream.day_view_s"] = median_of(&Pass::day_view_s);
  m["analysis.streaming.daily_activity_s"] = median_of(&Pass::daily_activity_s);
  m["analysis.streaming.ranked_sources_s"] = median_of(&Pass::ranked_sources_s);
  m["analysis.streaming.file_spread_s"] = median_of(&Pass::file_spread_s);
  m["stream_analyses_s"] = m["trace.stream.day_view_s"] +
                           m["analysis.streaming.daily_activity_s"] +
                           m["analysis.streaming.ranked_sources_s"] +
                           m["analysis.streaming.file_spread_s"];
  const edk::ShardedGossipStats& g = passes.front().gossip;
  m["events_per_s"] = static_cast<double>(g.events_executed) / gossip_s;
  m["sim.events"] = static_cast<double>(g.events_executed);
  m["sim.messages"] = static_cast<double>(g.messages_sent);
  m["sim.windows"] = static_cast<double>(g.windows);
  m["sim.cross_shard_ratio"] =
      g.messages_sent ? static_cast<double>(g.cross_shard_messages) /
                            static_cast<double>(g.messages_sent)
                      : 0.0;
  std::vector<double> loop, stall, skew;
  for (const Pass& p : passes) {
    loop.push_back(p.engine.window_loop_s);
    stall.push_back(p.engine.barrier_stall_s);
    double sum = 0, max = 0;
    for (const double e : p.engine.shard_events) {
      sum += e;
      max = std::max(max, e);
    }
    skew.push_back(sum > 0 ? max / (sum / kShards) : 0.0);
  }
  m["sim.window_loop_s"] = Median(loop);
  m["sim.barrier_stall_s"] = Median(stall);
  m["sim.shard_event_skew"] = Median(skew);
  m["trace.stream.scan_serial_gb_per_s"] = serial_s > 0 ? gb / serial_s : 0;
  m["trace.stream.scan_speedup"] = serial_s > 0 ? serial_s / scan_s : 0;
  m["bench.trace_overhead_ratio"] =
      options.trace ? PassSeconds(traced) / PassSeconds(untraced) - 1 : 0;

  if (options.trace) {
    // 1-shard baseline of the engine speed-up, on the full population.
    edk::ShardedGossipStats one;
    {
      auto span = tracer.Trace("semantic", "RunShardedGossip (1 shard)");
      const auto t0 = Clock::now();
      one = edk::RunShardedGossip(caches, geography,
                                  GossipConfig(options.seed, 1));
      m["sim.shard_speedup"] = SecondsSince(t0) / gossip_s;
    }
    result.Check(one.DeterministicSummary() == g.DeterministicSummary(),
                 "1-shard full-population gossip differs from 4 shards");
  }
  std::remove(path.c_str());

  char line[260];
  std::snprintf(line, sizeof(line),
                "trace %.1f MB, %llu snapshots; setup %.3f s; pass %.3f s, "
                "%.3f CPU s: "
                "scan %.3f s (%.2f GB/s), analyses %.3f s, gossip %.3f s "
                "(%.0f events/s, %llu events)",
                static_cast<double>(reader->size_bytes()) / 1e6,
                static_cast<unsigned long long>(serial.snapshots), m["setup_s"],
                m["work_s"], m["work_cpu_s"], scan_s, m["scan_gb_per_s"],
                m["stream_analyses_s"],
                gossip_s, m["events_per_s"],
                static_cast<unsigned long long>(g.events_executed));
  result.notes.push_back(line);
  std::string times = "round times (s):";
  for (const Pass& pass : passes) {
    std::snprintf(line, sizeof(line), " %.4f", pass.total_s);
    times += line;
  }
  result.notes.push_back(times);
  return result;
}

}  // namespace perfbench
