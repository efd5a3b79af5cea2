// Extension experiment: dynamic (day-by-day) semantic search.
//
// Replays the extrapolated trace as it unfolded: requests are each day's
// actual new acquisitions, only online peers answer, and neighbour lists
// persist across days. If the overlap plateaux of Figs. 15-17 mean what the
// paper says — interest proximity is stable over weeks — the daily hit rate
// must hold up (or grow) over the trace instead of decaying as early
// neighbour lists go stale.

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "bench/bench_common.h"
#include "src/common/table.h"
#include "src/semantic/dynamic_sim.h"
#include "src/semantic/search_sim.h"
#include "src/semantic/sharded_gossip.h"
#include "src/trace/stream/convert.h"
#include "src/trace/stream/trace_reader.h"

int main(int argc, char** argv) {
  const edk::BenchOptions options = edk::ParseBenchOptions(argc, argv);
  edk::PrintBenchHeader("Extension: dynamic day-by-day semantic search",
                        "daily hit rate must not decay if interest proximity "
                        "is stable (Figs. 15-17)",
                        options);

  const edk::Trace extrapolated = edk::LoadOrGenerateExtrapolated(options);

  edk::AsciiTable table({"day", "requests", "LRU-20 daily hit rate"});
  edk::DynamicSimConfig config;
  config.strategy = edk::StrategyKind::kLru;
  config.list_size = 20;
  config.seed = options.workload.seed;
  const edk::DynamicSimResult dynamic = RunDynamicSearchSimulation(extrapolated, config);
  for (size_t d = 0; d < dynamic.days.size(); d += 2) {
    const auto& day = dynamic.days[d];
    table.AddRow({std::to_string(day.day), std::to_string(day.requests),
                  edk::FormatPercent(day.HitRate())});
  }
  table.Print(std::cout);

  // First-week vs last-week comparison.
  auto window_rate = [&dynamic](size_t begin, size_t end) {
    uint64_t requests = 0;
    uint64_t hits = 0;
    for (size_t d = begin; d < end && d < dynamic.days.size(); ++d) {
      requests += dynamic.days[d].requests;
      hits += dynamic.days[d].hits;
    }
    return requests == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(requests);
  };
  const size_t days = dynamic.days.size();
  std::cout << "\noverall dynamic hit rate: " << edk::FormatPercent(dynamic.HitRate())
            << "  (" << dynamic.requests << " requests, " << dynamic.unresolvable
            << " unresolvable: no online source that day)\n";
  std::cout << "week 2 (warm-up done): " << edk::FormatPercent(window_rate(7, 14))
            << " vs final week: " << edk::FormatPercent(window_rate(days - 7, days))
            << " -> lists learned early keep paying off\n";

  // The same replay straight off an EDKT v2 file: the reader's day source
  // holds one day resident at a time and must reproduce the in-RAM
  // run bit for bit (DESIGN.md §6i). This is the zero-materialise entry
  // point a real multi-week crawl would use.
  const std::string v2_path =
      (std::filesystem::temp_directory_path() / "edk_bench_dynamic.edk2")
          .string();
  std::string stream_error;
  if (!edk::stream::SaveTraceV2ToFile(extrapolated, v2_path, &stream_error)) {
    std::cerr << "v2 save failed: " << stream_error << "\n";
    return 1;
  }
  auto reader = edk::stream::TraceReader::Open(v2_path, &stream_error);
  if (!reader.has_value()) {
    std::cerr << "v2 open failed: " << stream_error << "\n";
    return 1;
  }
  const auto streamed = RunDynamicSearchSimulation(*reader, config, &stream_error);
  if (!streamed.has_value()) {
    std::cerr << "streaming replay failed: " << stream_error << "\n";
    return 1;
  }
  const bool identical = streamed->requests == dynamic.requests &&
                         streamed->hits == dynamic.hits &&
                         streamed->fallbacks == dynamic.fallbacks &&
                         streamed->unresolvable == dynamic.unresolvable;
  std::cout << "streaming replay off EDKT v2 (one day resident): "
            << (identical ? "bit-identical to the in-RAM run" : "MISMATCH")
            << "\n";
  if (!identical) {
    return 1;
  }

  // Reference: the paper's static replay at the same list size.
  const edk::Trace filtered = edk::LoadOrGenerateFiltered(options);
  edk::SearchSimConfig static_config;
  static_config.strategy = edk::StrategyKind::kLru;
  static_config.list_size = 20;
  static_config.seed = options.workload.seed;
  static_config.track_load = false;
  const double static_rate =
      RunSearchSimulation(edk::BuildUnionCaches(filtered), static_config).OneHopHitRate();
  std::cout << "static §5 replay reference (LRU-20): " << edk::FormatPercent(static_rate)
            << "\n";

  // Could the day's population have built equivalent lists with zero
  // history? Event-driven gossip on the final day's cache snapshot, run on
  // the sharded engine (--shards=K, --threads=N). Output is bit-identical
  // for every shards/threads combination. The snapshot comes off the v2
  // reader's day view — layout-identical to BuildDayCaches on the in-RAM
  // trace — so the sharded scenario also runs without materialising.
  const auto* last_info = reader->FindDay(extrapolated.last_day());
  if (last_info == nullptr) {
    std::cerr << "final day missing from v2 file\n";
    return 1;
  }
  const auto last_view = reader->ReadDay(*last_info, &stream_error);
  if (!last_view.has_value()) {
    std::cerr << "final day view failed: " << stream_error << "\n";
    return 1;
  }
  const edk::StaticCaches day_caches = last_view->store.ToStaticCaches();
  edk::ShardedGossipConfig sharded;
  sharded.seed = options.workload.seed;
  sharded.shards = options.shards;
  sharded.threads = options.threads;
  sharded.rounds = options.rounds > 0 ? options.rounds : 12;
  sharded.trajectory = false;
  sharded.probe_rounds = 4;
  const edk::ShardedGossipStats stats = edk::RunShardedGossip(
      day_caches, edk::Geography::PaperDistribution(), sharded);
  std::cout << "\nevent-driven gossip on the final day's snapshot ("
            << sharded.rounds << " rounds, sharded engine):\n"
            << "  participants=" << stats.participants
            << " exchanges=" << stats.exchanges
            << " events=" << stats.events_executed
            << " windows=" << stats.windows << "\n"
            << "  mean view overlap: "
            << edk::AsciiTable::FormatCell(stats.mean_view_overlap)
            << "  view hit rate: " << edk::FormatPercent(stats.view_hit_rate)
            << "  probe hit rate: " << edk::FormatPercent(stats.ProbeHitRate())
            << "\n";
  std::cerr << "[sharded] shards=" << sharded.shards << " "
            << stats.events_executed << " events in " << stats.wall_seconds
            << " s (" << static_cast<uint64_t>(stats.EventsPerSecond())
            << " events/s)\n";
  std::remove(v2_path.c_str());
  return 0;
}
