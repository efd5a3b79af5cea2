#include "src/semantic/dynamic_sim.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/obs/span.h"
#include "src/obs/trace_log.h"
#include "src/trace/day_source.h"

namespace edk {

namespace {

// Returns nullopt (with `error` set) only when the source fails to decode
// a day.
template <typename Source>
std::optional<DynamicSimResult> Replay(const Source& source,
                                       const DynamicSimConfig& config,
                                       std::string* error) {
  DynamicSimResult result;
  if (source.last_day() < source.first_day()) {
    return result;
  }
  const size_t peer_count = source.peer_count();
  Rng rng(config.seed);

  // Per-peer knowledge as of the last observed snapshot: what the peer was
  // sharing *before* today, i.e. what it can serve to others today.
  std::vector<std::unordered_set<uint32_t>> known(peer_count);
  std::vector<bool> seen_before(peer_count, false);

  std::vector<std::unique_ptr<NeighbourList>> lists(peer_count);
  const bool random_strategy = config.strategy == StrategyKind::kRandom;

  // Audit trail: one record per replayed request — including unresolvable
  // ones (kNoOnlineSource), so the trace explains every line of the replay.
  // The ordinal counts all records; `extra` carries the replay day.
  const bool tracing = obs::TraceLog::Enabled();
  const uint16_t audit_name = tracing ? obs::DynamicAuditName() : 0;
  uint64_t audit_ordinal = 0;

  // The current day's snapshots, buffered once per day: `online` ascending,
  // peer i's cache at today_files[today_offset[i]..today_offset[i + 1]).
  // This is the only per-day state, so memory stays bounded by one day for
  // a file-backed source.
  std::vector<uint32_t> online;
  std::vector<size_t> today_offset;
  std::vector<uint32_t> today_files;

  std::vector<uint32_t> neighbours;
  typename Source::Scratch scratch;
  for (int day = source.first_day(); day <= source.last_day(); ++day) {
    online.clear();
    today_offset.clear();
    today_files.clear();
    if (!source.ForEachSnapshot(
            day, scratch, [&](uint32_t p, const uint32_t* files, size_t count) {
              online.push_back(p);
              today_offset.push_back(today_files.size());
              today_files.insert(today_files.end(), files, files + count);
            })) {
      if (error != nullptr) {
        *error = "failed to decode day " + std::to_string(day);
      }
      return std::nullopt;
    }
    today_offset.push_back(today_files.size());

    // What does each online peer newly request today?
    std::vector<uint64_t> requests;  // (peer << 32) | file.
    for (size_t i = 0; i < online.size(); ++i) {
      const uint32_t p = online[i];
      if (!seen_before[p]) {
        continue;  // First observation: the initial cache is pre-owned.
      }
      for (size_t k = today_offset[i]; k < today_offset[i + 1]; ++k) {
        if (!known[p].contains(today_files[k])) {
          requests.push_back((static_cast<uint64_t>(p) << 32) | today_files[k]);
        }
      }
    }

    // Today's servable content: file -> online peers that already shared
    // it before today.
    std::unordered_map<uint32_t, std::vector<uint32_t>> servers_of;
    std::unordered_set<uint32_t> online_set(online.begin(), online.end());
    for (uint32_t p : online) {
      for (uint32_t f : known[p]) {
        servers_of[f].push_back(p);
      }
    }

    rng.Shuffle(requests);
    DynamicDayStats day_stats;
    day_stats.day = day;
    for (uint64_t packed : requests) {
      const uint32_t p = static_cast<uint32_t>(packed >> 32);
      const uint32_t f = static_cast<uint32_t>(packed);
      const auto sources_it = servers_of.find(f);
      if (sources_it == servers_of.end() || sources_it->second.empty()) {
        ++result.unresolvable;  // Nobody online serves it today.
        if (tracing) {
          obs::EmitAudit(audit_name, audit_ordinal++, p, f,
                         obs::QueryOutcome::kNoOnlineSource, 0,
                         static_cast<uint64_t>(config.strategy),
                         config.list_size, static_cast<uint64_t>(day));
        }
        continue;
      }
      ++result.requests;
      ++day_stats.requests;

      uint32_t uploader = 0xffffffffu;
      neighbours.clear();
      if (random_strategy) {
        for (size_t attempts = 0;
             neighbours.size() < config.list_size && attempts < 4 * config.list_size;
             ++attempts) {
          const uint32_t candidate = online[rng.NextBelow(online.size())];
          if (candidate != p &&
              std::find(neighbours.begin(), neighbours.end(), candidate) ==
                  neighbours.end()) {
            neighbours.push_back(candidate);
          }
        }
      } else if (lists[p] != nullptr) {
        lists[p]->Collect(config.list_size, neighbours);
      }
      bool hit = false;
      for (uint32_t q : neighbours) {
        if (online_set.contains(q) && known[q].contains(f)) {
          uploader = q;
          hit = true;
          break;
        }
      }
      if (hit) {
        ++result.hits;
        ++day_stats.hits;
      } else {
        ++result.fallbacks;
        const auto& sources = sources_it->second;
        uploader = sources[rng.NextBelow(sources.size())];
      }
      if (tracing) {
        const obs::QueryOutcome outcome =
            hit ? obs::QueryOutcome::kOneHopHit
                : (neighbours.empty() ? obs::QueryOutcome::kNeighbourAbsent
                                      : obs::QueryOutcome::kCacheMiss);
        obs::EmitAudit(audit_name, audit_ordinal++, p, f, outcome,
                       neighbours.size(),
                       static_cast<uint64_t>(config.strategy),
                       config.list_size, static_cast<uint64_t>(day));
      }
      if (!random_strategy) {
        if (lists[p] == nullptr) {
          lists[p] = MakeNeighbourList(config.strategy, config.list_size);
        }
        lists[p]->RecordUpload(uploader,
                               1.0 / static_cast<double>(sources_it->second.size()));
      }
    }
    result.days.push_back(day_stats);

    // End of day: knowledge advances to today's snapshots.
    for (size_t i = 0; i < online.size(); ++i) {
      const uint32_t p = online[i];
      known[p].clear();
      for (size_t k = today_offset[i]; k < today_offset[i + 1]; ++k) {
        known[p].insert(today_files[k]);
      }
      seen_before[p] = true;
    }
  }
  return result;
}

}  // namespace

DynamicSimResult RunDynamicSearchSimulation(const Trace& trace,
                                            const DynamicSimConfig& config) {
  // An in-RAM source cannot fail to decode.
  return *Replay(TraceDaySource(trace), config, nullptr);
}

std::optional<DynamicSimResult> RunDynamicSearchSimulation(
    const stream::TraceReader& reader, const DynamicSimConfig& config,
    std::string* error) {
  return Replay(stream::ReaderDaySource(reader), config, error);
}

}  // namespace edk
