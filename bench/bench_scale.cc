// Scale bench: million-peer populations on the sharded engine.
//
// The paper crawled 1.16 M distinct peers (§3); the single-queue kernel
// tops out far below that. This bench runs the event-driven semantic
// gossip scenario over a synthetic clustered population at increasing
// shard counts under each node→shard placement policy, cross-checks that
// every run is bit-identical (the engine's determinism contract makes the
// placement a pure performance knob), and reports throughput plus the
// cross-shard message ratio per configuration. With --json=FILE the sweep
// summary is written as JSON (the BENCH_scale.json trajectory; format
// documented in EXPERIMENTS.md).
//
//   bench_scale --peers=1000000 --files=800 --topics=16 --rounds=32
//               --explore-every=8 --shards=8 --json=BENCH_scale.json
//
// --shards=K sets the sweep ceiling (powers of two up to K; default 8);
// --placement selects one policy or "all" (default). The 1-shard baseline
// runs once — with a single shard every placement is the identity map.
// The gossip mix defaults to explore_every=3 here (two exploit rounds per
// explore round): the scale story is precisely that semantic-neighbour
// traffic dominates, and that is the traffic interest placement localises.
// The committed BENCH_scale.json uses --explore-every=8 with enough
// rounds for the views to converge — the cross-shard ratio is cumulative,
// so the cold-start rounds (views still random, exploitation aimless)
// dilute it until exploitation dominates.
// Note the throughput ratio between shard counts is hardware-dependent:
// on a single-core builder the sweep still validates determinism,
// windowing overhead and message locality, but no parallel speedup is
// physically available.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/table.h"
#include "src/exec/parallel.h"
#include "src/semantic/sharded_gossip.h"
#include "src/sim/placement.h"
#include "src/workload/geography.h"

int main(int argc, char** argv) {
  const edk::BenchOptions options = edk::ParseBenchOptions(argc, argv);
  edk::PrintBenchHeader("Scale: sharded-engine population sweep",
                        "server-less designs must work at the crawl's scale: "
                        "1.16 M distinct peers (§3)",
                        options);

  const uint32_t peers = options.workload.num_peers;
  const uint32_t files = options.workload.num_files;
  const uint32_t topics = options.workload.num_topics;
  const size_t rounds = options.rounds > 0 ? options.rounds : 6;
  const size_t explore_every =
      options.explore_every > 0 ? options.explore_every : 3;

  edk::StaticCaches caches;
  try {
    caches = edk::MakeClusteredCaches(peers, files, topics, options.workload.seed);
  } catch (const std::invalid_argument& error) {  // --files=0
    std::cerr << error.what() << "\n";
    return 2;
  }
  const edk::Geography geography = edk::Geography::PaperDistribution();

  std::vector<edk::sim::PlacementPolicy> policies;
  if (options.placement == "all") {
    policies = {edk::sim::PlacementPolicy::kRoundRobin,
                edk::sim::PlacementPolicy::kContiguous,
                edk::sim::PlacementPolicy::kInterestClustered};
  } else {
    edk::sim::PlacementPolicy policy = edk::sim::PlacementPolicy::kRoundRobin;
    edk::sim::ParsePlacementPolicy(options.placement, &policy);  // Pre-validated.
    policies = {policy};
  }

  std::vector<size_t> shard_counts;
  const size_t max_shards = options.shards > 1 ? options.shards : 8;
  for (size_t k = 1; k <= max_shards; k *= 2) {
    shard_counts.push_back(k);
  }

  struct Row {
    edk::sim::PlacementPolicy policy;
    size_t shards = 0;
    edk::ShardedGossipStats stats;
    double CrossShardRatio() const {
      return stats.messages_sent > 0
                 ? static_cast<double>(stats.cross_shard_messages) /
                       static_cast<double>(stats.messages_sent)
                 : 0.0;
    }
  };
  std::vector<Row> rows;
  std::string reference;
  bool deterministic_match = true;
  for (size_t k : shard_counts) {
    for (edk::sim::PlacementPolicy policy : policies) {
      edk::ShardedGossipConfig config;
      config.seed = options.workload.seed;
      config.shards = k;
      config.threads = options.threads;
      config.rounds = rounds;
      config.explore_every = explore_every;
      // Richer exchanges than the unit-test defaults: a 16-entry view and
      // 8-entry offers roughly halve the rounds the population needs to
      // find its semantic neighbours, which is what the cumulative
      // cross-shard ratio (cold start included) is most sensitive to.
      config.view_size = 16;
      config.gossip_length = 8;
      config.placement = policy;
      config.window_factor = options.window_factor;
      config.trajectory = false;
      config.probe_rounds = 2;
      Row row;
      row.policy = policy;
      row.shards = k;
      row.stats = edk::RunShardedGossip(caches, geography, config);
      std::cerr << "[scale] placement=" << edk::sim::PlacementPolicyName(policy)
                << " shards=" << k << ": " << row.stats.events_executed
                << " events in " << row.stats.wall_seconds << " s ("
                << static_cast<uint64_t>(row.stats.EventsPerSecond())
                << " events/s)\n";
      const std::string summary = row.stats.DeterministicSummary();
      if (reference.empty()) {
        reference = summary;
      } else if (summary != reference) {
        deterministic_match = false;
        std::cerr << "bench_scale: DETERMINISM VIOLATION at placement="
                  << edk::sim::PlacementPolicyName(policy) << " shards=" << k
                  << "\n  want: " << reference << "\n  got:  " << summary
                  << "\n";
      }
      rows.push_back(std::move(row));
      if (k == 1) {
        break;  // One shard: every placement is the identity map.
      }
    }
  }

  const edk::ShardedGossipStats& first = rows.front().stats;
  std::cout << "population: " << peers << " peers, " << first.participants
            << " participants, " << rounds << " rounds (explore every "
            << explore_every << "), " << first.events_executed << " events, "
            << first.messages_sent << " messages\n"
            << "converged:  mean view overlap "
            << edk::AsciiTable::FormatCell(first.mean_view_overlap)
            << ", view hit rate " << edk::FormatPercent(first.view_hit_rate)
            << ", probe hit rate " << edk::FormatPercent(first.ProbeHitRate())
            << "\n\n";
  edk::AsciiTable table({"placement", "shards", "events/s", "wall s",
                         "cross-shard msgs", "cross %", "speedup"});
  const double base_rate = rows.front().stats.EventsPerSecond();
  for (const Row& row : rows) {
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.2f", row.stats.wall_seconds);
    char cross[32];
    std::snprintf(cross, sizeof(cross), "%.1f%%", row.CrossShardRatio() * 100);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  base_rate > 0 ? row.stats.EventsPerSecond() / base_rate : 0.0);
    table.AddRow({edk::sim::PlacementPolicyName(row.policy),
                  std::to_string(row.shards),
                  std::to_string(static_cast<uint64_t>(row.stats.EventsPerSecond())),
                  wall, std::to_string(row.stats.cross_shard_messages), cross,
                  speedup});
  }
  table.Print(std::cout);
  std::cout << "\ndeterminism cross-check: "
            << (deterministic_match
                    ? "all placement/shard combinations bit-identical"
                    : "FAILED — runs diverged")
            << "\n";

  // Headline locality stat: interest-clustered vs contiguous cross-shard
  // ratio at the sweep ceiling (when both were run).
  double interest_reduction = 0.0;
  {
    double contiguous_ratio = 0.0, interest_ratio = 0.0;
    for (const Row& row : rows) {
      if (row.shards != max_shards) {
        continue;
      }
      if (row.policy == edk::sim::PlacementPolicy::kContiguous) {
        contiguous_ratio = row.CrossShardRatio();
      } else if (row.policy == edk::sim::PlacementPolicy::kInterestClustered) {
        interest_ratio = row.CrossShardRatio();
      }
    }
    if (contiguous_ratio > 0 && interest_ratio > 0) {
      interest_reduction = contiguous_ratio / interest_ratio;
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%.2f", interest_reduction);
      std::cout << "interest placement cross-shard reduction at "
                << max_shards << " shards: " << cell << "x vs contiguous\n";
    }
  }

  if (!options.json_out.empty()) {
    std::ofstream out(options.json_out);
    if (!out) {
      std::cerr << "bench_scale: cannot write " << options.json_out << "\n";
      return 1;
    }
    char cell[64];
    out << "{\n  \"schema\": \"edk.bench_scale.v2\",\n";
    out << "  \"population\": {\"peers\": " << peers << ", \"files\": " << files
        << ", \"topics\": " << topics << ", \"participants\": "
        << first.participants << ", \"rounds\": " << rounds
        << ", \"explore_every\": " << explore_every
        << ", \"seed\": " << options.workload.seed << "},\n";
    out << "  \"hardware_threads\": " << edk::HardwareThreads()
        << ", \"threads\": " << edk::DefaultThreads() << ",\n";
    std::snprintf(cell, sizeof(cell), "%.3f", options.window_factor);
    out << "  \"window_factor\": " << cell << ",\n";
    std::snprintf(cell, sizeof(cell), "%.6f", first.mean_view_overlap);
    out << "  \"mean_view_overlap\": " << cell << ",\n";
    std::snprintf(cell, sizeof(cell), "%.6f", first.view_hit_rate);
    out << "  \"view_hit_rate\": " << cell << ",\n";
    out << "  \"deterministic_match\": "
        << (deterministic_match ? "true" : "false") << ",\n";
    std::snprintf(cell, sizeof(cell), "%.3f", interest_reduction);
    out << "  \"interest_cross_shard_reduction\": " << cell << ",\n";
    out << "  \"runs\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      out << "    {\"placement\": \"" << edk::sim::PlacementPolicyName(row.policy)
          << "\", \"shards\": " << row.shards << ", \"events\": "
          << row.stats.events_executed << ", \"messages\": "
          << row.stats.messages_sent << ", \"windows\": " << row.stats.windows
          << ", \"clamped_sends\": " << row.stats.clamped_sends
          << ", \"deferred_sends\": " << row.stats.deferred_sends
          << ", \"cross_shard_messages\": " << row.stats.cross_shard_messages;
      std::snprintf(cell, sizeof(cell), "%.4f", row.CrossShardRatio());
      out << ", \"cross_shard_ratio\": " << cell;
      std::snprintf(cell, sizeof(cell), "%.3f", row.stats.wall_seconds);
      out << ", \"wall_seconds\": " << cell << ", \"events_per_second\": "
          << static_cast<uint64_t>(row.stats.EventsPerSecond());
      std::snprintf(cell, sizeof(cell), "%.2f",
                    base_rate > 0 ? row.stats.EventsPerSecond() / base_rate : 0.0);
      out << ", \"speedup_vs_1_shard\": " << cell << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  return deterministic_match ? 0 : 1;
}
