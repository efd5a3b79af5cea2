// Out-of-core streaming pipeline bench (DESIGN.md §6h/§6i, EXPERIMENTS.md).
//
// Demonstrates the EDKT v2 pipeline at crawl scale: generate a multi-week
// trace for a population far beyond what a Trace can hold in RAM, then
// scan and analyse it day-by-day through the mmap-backed TraceReader —
// and report that the WHOLE run (generation + scan + analyses) stayed
// under the peak-RSS budget. The paper crawled 1.16 M distinct peers
// (§3); the default here is 10 M peers over 14 days.
//
//   bench_stream [--peers=N] [--files=N] [--days=N] [--online=PER_MYRIAD]
//                [--seed=N] [--block-bytes=N] [--threads=N]
//                [--rss-budget-mb=N] [--out=trace.edk2] [--resume] [--keep]
//                [--json=FILE]
//
// --out names the trace file (default bench_stream.edk2 in the working
// directory; deleted at exit unless --keep). --resume continues a partial
// generation — the writer truncates any torn tail and the (deterministic)
// hash model re-emits only the missing days. --threads sets the worker
// count for the parallel scan and the streaming analyses (0 = hardware
// concurrency). --block-bytes sets the day-block target for generation
// (0 = legacy block-less segments, which also disables the block-parallel
// scan). --rss-budget-mb sets the pass/fail RSS ceiling (default 2048).
// --json writes the committed BENCH_stream.json summary.
//
// Reported phases:
//   generate    GenerateScaleTrace: O(1) state per snapshot, bytes/s
//   scan(1)     serial decode of every day segment (ForEachSnapshot), GB/s
//   scan(N)     the same bytes through ParallelScanSnapshots at --threads;
//               the XOR checksum must equal the serial one (determinism
//               witness — both appear in the JSON)
//   day-view    materialise the densest day as a CacheStore (block-parallel
//               FromCsr fill) — the unit of memory the analyses pay for
//   analyses    StreamingDailyActivity, StreamingRankedSourcesOnDay,
//               StreamingFileSpreadOverTime (most-sourced file)
//
// The overlap/clustering kernels are checked against an oracle at small
// scale by tests/analysis/day_sweep_test.cc; their cost is
// quadratic-ish in holders and not a scan-rate story, so they are not run
// at 10 M peers here.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/streaming.h"
#include "src/common/table.h"
#include "src/exec/parallel.h"
#include "src/trace/stream/parallel_scan.h"
#include "src/trace/stream/trace_reader.h"
#include "src/workload/stream_generate.h"

namespace {

struct Options {
  edk::ScaleTraceConfig config;
  edk::stream::TraceWriter::Options writer;
  std::string path = "bench_stream.edk2";
  std::string json_out;
  size_t threads = 0;  // 0 = hardware concurrency.
  uint64_t rss_budget_mb = 2048;
  bool resume = false;
  bool keep = false;
};

[[noreturn]] void Usage() {
  std::cerr << "usage: bench_stream [--peers=N] [--files=N] [--days=N]"
               " [--online=PER_MYRIAD] [--seed=N] [--block-bytes=N]"
               " [--threads=N] [--rss-budget-mb=N] [--out=FILE] [--resume]"
               " [--keep] [--json=FILE]\n";
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--peers=")) {
      options.config.num_peers = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--files=")) {
      options.config.num_files = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--days=")) {
      options.config.num_days = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (const char* v = value("--online=")) {
      options.config.online_per_myriad =
          static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value("--seed=")) {
      options.config.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--block-bytes=")) {
      options.writer.block_target_bytes = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--threads=")) {
      options.threads = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--rss-budget-mb=")) {
      options.rss_budget_mb = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--out=")) {
      options.path = v;
    } else if (const char* v = value("--json=")) {
      options.json_out = v;
    } else if (std::strcmp(arg, "--resume") == 0) {
      options.resume = true;
    } else if (std::strcmp(arg, "--keep") == 0) {
      options.keep = true;
    } else {
      std::cerr << "bench_stream: unknown flag '" << arg << "'\n";
      Usage();
    }
  }
  return options;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Peak resident set of this process, in BYTES. getrusage reports ru_maxrss
// in kibibytes on Linux (man getrusage(2)); the *1024 here converts once so
// every consumer — the table, the JSON, the budget check — sees bytes and
// no reader has to remember the platform unit.
uint64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

std::string FormatDouble(double v, const char* fmt = "%.3f") {
  char cell[64];
  std::snprintf(cell, sizeof(cell), fmt, v);
  return cell;
}

// One full-trace decode: every snapshot of every day. The XOR/sum
// accumulators keep the decode from being optimised away and double as a
// determinism witness — serial and parallel scans must agree exactly
// (XOR and addition are commutative, so task order cannot matter).
struct ScanResult {
  bool ok = false;
  double seconds = 0.0;
  uint64_t snapshots = 0;
  uint64_t entries = 0;
  uint64_t checksum = 0;
};

uint64_t SnapshotWord(uint32_t peer, const uint32_t* files, size_t count) {
  return (static_cast<uint64_t>(peer) << 32) ^
         (count == 0 ? 0 : files[count - 1]);
}

ScanResult ScanSerial(const edk::stream::TraceReader& reader) {
  ScanResult result;
  const auto start = std::chrono::steady_clock::now();
  edk::stream::DecodeArena arena;
  for (const auto& info : reader.days()) {
    const bool ok = reader.ForEachSnapshot(
        info, arena, [&](uint32_t peer, const uint32_t* files, size_t count) {
          ++result.snapshots;
          result.entries += count;
          result.checksum ^= SnapshotWord(peer, files, count);
        });
    if (!ok) {
      std::cerr << "bench_stream: corrupt day " << info.day << "\n";
      return result;
    }
  }
  result.seconds = SecondsSince(start);
  result.ok = true;
  return result;
}

ScanResult ScanParallel(const edk::stream::TraceReader& reader,
                        size_t threads) {
  ScanResult result;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<edk::stream::ScanTask> tasks =
      edk::stream::MakeScanTasks(reader);
  std::vector<ScanResult> partials(tasks.size());
  const bool ok = edk::stream::ParallelScanSnapshots(
      reader, tasks,
      [&](size_t t, uint32_t peer, const uint32_t* files, size_t count) {
        ++partials[t].snapshots;
        partials[t].entries += count;
        partials[t].checksum ^= SnapshotWord(peer, files, count);
      },
      threads);
  if (!ok) {
    std::cerr << "bench_stream: parallel scan failed (corrupt block?)\n";
    return result;
  }
  for (const ScanResult& partial : partials) {
    result.snapshots += partial.snapshots;
    result.entries += partial.entries;
    result.checksum ^= partial.checksum;
  }
  result.seconds = SecondsSince(start);
  result.ok = true;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  const edk::ScaleTraceConfig& config = options.config;
  edk::SetDefaultThreads(options.threads);
  const size_t threads = edk::DefaultThreads();
  std::cerr << "bench_stream: " << config.num_peers << " peers, "
            << config.num_files << " files, " << config.num_days
            << " days (online " << config.online_per_myriad
            << "/10000, seed " << config.seed << ", block target "
            << options.writer.block_target_bytes << " B, " << threads
            << " threads) -> " << options.path << "\n";

  // Phase 1: generation. O(1) model state per snapshot; the writer holds
  // one day's columns at a time.
  auto start = std::chrono::steady_clock::now();
  std::string error;
  const auto gen = edk::GenerateScaleTrace(config, options.path,
                                           options.resume, &error,
                                           options.writer);
  if (!gen.has_value()) {
    std::cerr << "bench_stream: generation failed: " << error << "\n";
    return 1;
  }
  const double generate_seconds = SecondsSince(start);
  std::cerr << "[generate] " << gen->days_written << " days ("
            << gen->days_skipped << " skipped), " << gen->snapshots
            << " snapshots, " << gen->bytes_written << " bytes in "
            << FormatDouble(generate_seconds) << " s\n";

  // Phase 2: the scan matrix. Serial first (the baseline every speedup in
  // the JSON is measured against), then the block-parallel scan at
  // --threads over the same mapped bytes.
  auto reader = edk::stream::TraceReader::Open(options.path, &error);
  if (!reader.has_value()) {
    std::cerr << "bench_stream: open failed: " << error << "\n";
    return 1;
  }
  uint64_t total_blocks = 0;
  for (const auto& info : reader->days()) {
    total_blocks += edk::stream::TraceReader::BlockCount(info);
  }
  const double scan_gb = static_cast<double>(reader->size_bytes()) / 1e9;
  const ScanResult serial = ScanSerial(*reader);
  if (!serial.ok) {
    return 1;
  }
  const double serial_gb_per_s =
      serial.seconds > 0 ? scan_gb / serial.seconds : 0.0;
  std::cerr << "[scan 1t] " << serial.snapshots << " snapshots, "
            << serial.entries << " entries, " << FormatDouble(scan_gb)
            << " GB in " << FormatDouble(serial.seconds) << " s ("
            << FormatDouble(serial_gb_per_s) << " GB/s)\n";

  const ScanResult parallel = ScanParallel(*reader, threads);
  if (!parallel.ok) {
    return 1;
  }
  const double parallel_gb_per_s =
      parallel.seconds > 0 ? scan_gb / parallel.seconds : 0.0;
  const double speedup =
      parallel.seconds > 0 ? serial.seconds / parallel.seconds : 0.0;
  std::cerr << "[scan " << threads << "t] " << FormatDouble(scan_gb)
            << " GB in " << FormatDouble(parallel.seconds) << " s ("
            << FormatDouble(parallel_gb_per_s) << " GB/s, "
            << FormatDouble(speedup, "%.2f") << "x)\n";
  if (parallel.checksum != serial.checksum ||
      parallel.snapshots != serial.snapshots ||
      parallel.entries != serial.entries) {
    std::cerr << "bench_stream: PARALLEL SCAN MISMATCH (serial checksum "
              << serial.checksum << ", parallel " << parallel.checksum
              << ")\n";
    return 1;
  }

  // Phase 3: materialise the densest day view once — this is the largest
  // single allocation any streaming analysis makes.
  const edk::stream::TraceReader::DayInfo* densest = nullptr;
  for (const auto& info : reader->days()) {
    if (densest == nullptr || info.file_entries > densest->file_entries) {
      densest = &info;
    }
  }
  double day_view_seconds = 0.0;
  uint64_t day_view_peers = 0;
  if (densest != nullptr) {
    start = std::chrono::steady_clock::now();
    auto view = reader->ReadDay(*densest, &error);
    if (!view.has_value()) {
      std::cerr << "bench_stream: ReadDay failed: " << error << "\n";
      return 1;
    }
    day_view_seconds = SecondsSince(start);
    day_view_peers = view->peers.size();
    std::cerr << "[day-view] day " << densest->day << ": " << day_view_peers
              << " peers, " << densest->file_entries << " entries in "
              << FormatDouble(day_view_seconds) << " s\n";
  }

  // Phase 4: streaming analyses (linear-cost ones; see header comment).
  start = std::chrono::steady_clock::now();
  const auto activity = edk::StreamingDailyActivity(*reader);
  const double activity_seconds = SecondsSince(start);

  const int last_day = reader->last_day();
  start = std::chrono::steady_clock::now();
  const auto sources = edk::StreamingRankedSourcesOnDay(*reader, last_day);
  const double sources_seconds = SecondsSince(start);

  // Fig. 8 twin on the most-sourced file of the last day.
  edk::FileId top_file(0);
  {
    // RankedSources* returns sorted counts without ids; recover the argmax
    // id with a direct per-file counting pass over the last day.
    uint32_t best = 0;
    edk::stream::DecodeArena arena;
    std::vector<uint32_t> per_file;
    if (const auto* info = reader->FindDay(last_day)) {
      per_file.assign(reader->file_count(), 0);
      reader->ForEachSnapshot(
          *info, arena, [&](uint32_t, const uint32_t* files, size_t count) {
            for (size_t f = 0; f < count; ++f) {
              ++per_file[files[f]];
            }
          });
      for (uint32_t f = 0; f < per_file.size(); ++f) {
        if (per_file[f] > best) {
          best = per_file[f];
          top_file = edk::FileId(f);
        }
      }
    }
  }
  start = std::chrono::steady_clock::now();
  const auto spread = edk::StreamingFileSpreadOverTime(*reader, top_file);
  const double spread_seconds = SecondsSince(start);

  const uint64_t peak_rss = PeakRssBytes();
  const uint64_t rss_budget_bytes = options.rss_budget_mb * (1ull << 20);
  const bool under_budget = peak_rss < rss_budget_bytes;

  std::cout << "population: " << config.num_peers << " peers, "
            << config.num_files << " files, " << activity.size()
            << " observed days, " << serial.snapshots << " snapshots, "
            << serial.entries << " file entries\n"
            << "trace file: " << reader->size_bytes() << " bytes, "
            << total_blocks << " day blocks\n\n";
  edk::AsciiTable table({"phase", "wall s", "rate"});
  table.AddRow({"generate", FormatDouble(generate_seconds),
                FormatDouble(generate_seconds > 0
                                 ? static_cast<double>(gen->bytes_written) /
                                       1e6 / generate_seconds
                                 : 0.0) +
                    " MB/s"});
  table.AddRow({"scan 1t", FormatDouble(serial.seconds),
                FormatDouble(serial_gb_per_s) + " GB/s"});
  table.AddRow({"scan " + std::to_string(threads) + "t",
                FormatDouble(parallel.seconds),
                FormatDouble(parallel_gb_per_s) + " GB/s"});
  table.AddRow({"day-view", FormatDouble(day_view_seconds),
                std::to_string(day_view_peers) + " peers"});
  table.AddRow({"daily-activity", FormatDouble(activity_seconds),
                std::to_string(activity.size()) + " days"});
  table.AddRow({"ranked-sources", FormatDouble(sources_seconds),
                std::to_string(sources.size()) + " shared files"});
  table.AddRow({"file-spread", FormatDouble(spread_seconds),
                std::to_string(spread.size()) + " days"});
  table.Print(std::cout);
  std::cout << "\npeak RSS: " << peak_rss / (1024 * 1024) << " MiB ("
            << (under_budget ? "under" : "OVER") << " the "
            << options.rss_budget_mb << " MiB budget)\n"
            << "scan checksum: " << serial.checksum << " (parallel scan "
            << "matches)\n";

  if (!options.json_out.empty()) {
    std::ofstream out(options.json_out);
    if (!out) {
      std::cerr << "bench_stream: cannot write " << options.json_out << "\n";
      return 1;
    }
    out << "{\n  \"schema\": \"edk.bench_stream.v2\",\n";
    out << "  \"population\": {\"peers\": " << config.num_peers
        << ", \"files\": " << config.num_files << ", \"days\": "
        << config.num_days << ", \"online_per_myriad\": "
        << config.online_per_myriad << ", \"seed\": " << config.seed
        << "},\n";
    out << "  \"trace\": {\"bytes\": " << reader->size_bytes()
        << ", \"observed_days\": " << reader->days().size()
        << ", \"blocks\": " << total_blocks << ", \"block_target_bytes\": "
        << options.writer.block_target_bytes << ", \"snapshots\": "
        << serial.snapshots << ", \"file_entries\": " << serial.entries
        << ", \"checksum\": " << serial.checksum << "},\n";
    out << "  \"threads\": " << threads << ",\n";
    out << "  \"hardware_threads\": " << edk::HardwareThreads() << ",\n";
    out << "  \"generate\": {\"wall_seconds\": "
        << FormatDouble(generate_seconds) << ", \"days_written\": "
        << gen->days_written << ", \"days_skipped\": " << gen->days_skipped
        << ", \"mb_per_second\": "
        << FormatDouble(generate_seconds > 0
                            ? static_cast<double>(gen->bytes_written) / 1e6 /
                                  generate_seconds
                            : 0.0)
        << "},\n";
    out << "  \"scan_serial\": {\"wall_seconds\": "
        << FormatDouble(serial.seconds) << ", \"gb_per_second\": "
        << FormatDouble(serial_gb_per_s) << ", \"checksum\": "
        << serial.checksum << "},\n";
    out << "  \"scan_parallel\": {\"threads\": " << threads
        << ", \"wall_seconds\": " << FormatDouble(parallel.seconds)
        << ", \"gb_per_second\": " << FormatDouble(parallel_gb_per_s)
        << ", \"checksum\": " << parallel.checksum << ", \"speedup\": "
        << FormatDouble(speedup, "%.2f") << "},\n";
    out << "  \"day_view\": {\"wall_seconds\": "
        << FormatDouble(day_view_seconds) << ", \"peers\": " << day_view_peers
        << "},\n";
    out << "  \"analyses\": {\"daily_activity_seconds\": "
        << FormatDouble(activity_seconds) << ", \"ranked_sources_seconds\": "
        << FormatDouble(sources_seconds) << ", \"file_spread_seconds\": "
        << FormatDouble(spread_seconds) << "},\n";
    out << "  \"peak_rss_bytes\": " << peak_rss << ",\n";
    out << "  \"rss_budget_mb\": " << options.rss_budget_mb << ",\n";
    out << "  \"under_rss_budget\": " << (under_budget ? "true" : "false")
        << "\n}\n";
    out.close();
    if (!out) {
      std::cerr << "bench_stream: write to " << options.json_out
                << " failed\n";
      return 1;
    }
  }

  reader.reset();  // Unmap before deleting the file.
  if (!options.keep) {
    std::remove(options.path.c_str());
  }
  return under_budget ? 0 : 1;
}
