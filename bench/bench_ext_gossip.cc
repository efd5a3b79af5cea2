// Extension experiment: epidemic semantic overlay (the follow-on design the
// paper's §6 describes, originally evaluated on this very trace).
//
// Measures how quickly two-tier gossip converges to semantic views whose
// quality matches the history-based neighbour lists of §5 — without any
// download history: view overlap and view hit rate per gossip round,
// against the LRU trace-simulation reference.
//
// The gossip runs as discrete events on the sharded conservative engine
// (--shards=K, --threads=N, --rounds=R, default 32 rounds). Everything on
// stdout is bit-identical for every shards/threads combination; the
// wall-clock rate goes to stderr.

#include <iostream>

#include "bench/bench_common.h"
#include "src/common/table.h"
#include "src/semantic/search_sim.h"
#include "src/semantic/sharded_gossip.h"

int main(int argc, char** argv) {
  const edk::BenchOptions options = edk::ParseBenchOptions(argc, argv);
  edk::PrintBenchHeader("Extension: epidemic semantic overlay (gossip)",
                        "Voulgaris & van Steen on this trace: gossip clusters peers "
                        "by cache overlap within tens of rounds",
                        options);

  const edk::Trace filtered = edk::LoadOrGenerateFiltered(options);
  const edk::StaticCaches caches = edk::BuildUnionCaches(filtered);

  edk::ShardedGossipConfig gossip;
  gossip.seed = options.workload.seed;
  gossip.shards = options.shards;
  gossip.threads = options.threads;
  gossip.rounds = options.rounds > 0 ? options.rounds : 32;
  std::vector<std::vector<uint32_t>> views;
  const edk::ShardedGossipStats stats = edk::RunShardedGossip(
      caches, edk::Geography::PaperDistribution(), gossip, &views);

  std::cout << "gossip over " << stats.sim_seconds << " simulated seconds:\n";
  edk::AsciiTable table({"gossip rounds", "mean view overlap", "view hit rate"});
  for (const edk::GossipRoundPoint& point : stats.trajectory) {
    const bool power_of_two = (point.round & (point.round - 1)) == 0;
    if (power_of_two || point.round == gossip.rounds) {
      table.AddRow({std::to_string(point.round),
                    edk::AsciiTable::FormatCell(point.mean_view_overlap),
                    edk::FormatPercent(point.view_hit_rate)});
    }
  }
  table.Print(std::cout);
  std::cout << "participants=" << stats.participants
            << " exchanges=" << stats.exchanges
            << " messages=" << stats.messages_sent
            << " events=" << stats.events_executed
            << " windows=" << stats.windows << "\n";
  std::cerr << "[sharded] shards=" << gossip.shards << " "
            << stats.events_executed << " events in " << stats.wall_seconds
            << " s (" << static_cast<uint64_t>(stats.EventsPerSecond())
            << " events/s)\n";

  // Full request replay (§5.1) with the converged gossip views as FIXED
  // neighbour lists, against the LRU reference that must learn its lists
  // from download history during the replay.
  edk::SearchSimConfig fixed;
  fixed.list_size = gossip.view_size;
  fixed.seed = options.workload.seed;
  fixed.track_load = false;
  fixed.fixed_views = &views;
  const double gossip_rate = RunSearchSimulation(caches, fixed).OneHopHitRate();

  edk::SearchSimConfig lru;
  lru.strategy = edk::StrategyKind::kLru;
  lru.list_size = gossip.view_size;
  lru.seed = options.workload.seed;
  lru.track_load = false;
  const double lru_rate = RunSearchSimulation(caches, lru).OneHopHitRate();

  std::cout << "\nfull request replay at list size " << gossip.view_size << ":\n";
  std::cout << "  gossip views (fixed, no history): " << edk::FormatPercent(gossip_rate)
            << "\n";
  std::cout << "  LRU (learned during the replay):  " << edk::FormatPercent(lru_rate)
            << "\n";
  std::cout << "(gossip removes the cold start: its lists exist before the "
               "first download)\n";
  return 0;
}
