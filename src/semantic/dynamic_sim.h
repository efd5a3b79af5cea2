// Dynamic (day-by-day) semantic search simulation.
//
// The paper's §5 simulation is *static*: requests are replayed from the
// union caches in one shuffled pass. This extension replays the trace as
// it actually unfolded: each day, a peer's requests are the files that
// newly appeared in its cache that day; queries can only be answered by
// peers that are online that day and share the file *on that day*; and
// neighbour lists persist across days. It connects the temporal findings
// (overlap plateaux, Figs. 15-17) to the search results: if interest
// proximity really is stable over weeks, neighbour lists learned early
// must keep paying off late.
//
// The replay reads days through a day source (src/trace/day_source.h), so
// the same core runs from an in-RAM Trace or straight off an EDKT v2 file
// without materialising the whole trace — memory stays bounded by one day.
// Both sources visit snapshots in ascending peer order with identical
// cache contents, so the replay — every rng draw, every audit record — is
// byte-identical across them.

#ifndef SRC_SEMANTIC_DYNAMIC_SIM_H_
#define SRC_SEMANTIC_DYNAMIC_SIM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/semantic/neighbour_list.h"
#include "src/trace/stream/trace_reader.h"
#include "src/trace/trace.h"

namespace edk {

struct DynamicSimConfig {
  StrategyKind strategy = StrategyKind::kLru;
  size_t list_size = 20;
  uint64_t seed = 1;
};

struct DynamicDayStats {
  int day = 0;
  uint64_t requests = 0;
  uint64_t hits = 0;

  double HitRate() const {
    return requests == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(requests);
  }
};

struct DynamicSimResult {
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t fallbacks = 0;          // Resolved by server among online sources.
  uint64_t unresolvable = 0;       // No online source existed that day.
  std::vector<DynamicDayStats> days;

  double HitRate() const {
    return requests == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(requests);
  }
};

// `trace` should be dense per peer (the extrapolated trace); days without a
// snapshot mean the peer is offline (cannot ask, answer, or upload).
DynamicSimResult RunDynamicSearchSimulation(const Trace& trace,
                                            const DynamicSimConfig& config);

// Streaming twin: replays an EDKT v2 file day by day without materialising
// it. Byte-identical to the Trace overload on the same data.
std::optional<DynamicSimResult> RunDynamicSearchSimulation(
    const stream::TraceReader& reader, const DynamicSimConfig& config,
    std::string* error = nullptr);

}  // namespace edk

#endif  // SRC_SEMANTIC_DYNAMIC_SIM_H_
