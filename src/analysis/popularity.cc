#include "src/analysis/popularity.h"

#include <algorithm>
#include <functional>

#include "src/analysis/spread.h"
#include "src/analysis/streaming.h"
#include "src/exec/parallel.h"
#include "src/obs/metrics.h"
#include "src/trace/day_source.h"

namespace edk {

namespace {

constexpr uint32_t kNeverSeen = 0xffffffffu;

template <typename Source>
std::vector<DailyActivity> DailyActivityOver(const Source& source) {
  std::vector<DailyActivity> out;
  const int first = source.first_day();
  if (source.last_day() < first) {
    return out;
  }
  const size_t days = static_cast<size_t>(source.last_day() - first + 1);
  // Each worker counts per-day rows and keeps, per file, the earliest day
  // index it saw the file on. Sums and minima are order-free, so merging
  // the workers reproduces the serial sweep for any block layout and
  // thread count; new_files[d] is then the number of files first seen on d.
  struct Partial {
    std::vector<DailyActivity> rows;
    std::vector<uint32_t> first_seen;
  };
  Partial init;
  init.rows.resize(days);
  init.first_seen.assign(source.file_count(), kNeverSeen);
  std::vector<Partial> partials = ScanDays(
      source, first, source.last_day(), init,
      [first](Partial& part, int day, const uint32_t* files, size_t count) {
        const uint32_t d = static_cast<uint32_t>(day - first);
        DailyActivity& row = part.rows[d];
        ++row.clients_scanned;
        if (count > 0) {
          ++row.non_empty_caches;
          row.files_seen += count;
          for (size_t i = 0; i < count; ++i) {
            part.first_seen[files[i]] = std::min(part.first_seen[files[i]], d);
          }
        }
      });
  Partial merged = partials.empty() ? std::move(init) : std::move(partials[0]);
  for (size_t w = 1; w < partials.size(); ++w) {
    for (size_t d = 0; d < days; ++d) {
      merged.rows[d].clients_scanned += partials[w].rows[d].clients_scanned;
      merged.rows[d].non_empty_caches += partials[w].rows[d].non_empty_caches;
      merged.rows[d].files_seen += partials[w].rows[d].files_seen;
    }
    for (size_t f = 0; f < merged.first_seen.size(); ++f) {
      merged.first_seen[f] = std::min(merged.first_seen[f], partials[w].first_seen[f]);
    }
  }
  out = std::move(merged.rows);
  for (const uint32_t d : merged.first_seen) {
    if (d != kNeverSeen) {
      ++out[d].new_files;
    }
  }
  uint64_t cumulative = 0;
  for (size_t d = 0; d < days; ++d) {
    out[d].day = first + static_cast<int>(d);
    cumulative += out[d].new_files;
    out[d].total_files = cumulative;
  }
  return out;
}

std::vector<uint32_t> RankDescending(const std::vector<uint32_t>& counts) {
  std::vector<uint32_t> ranked;
  ranked.reserve(counts.size());
  for (uint32_t c : counts) {
    if (c > 0) {
      ranked.push_back(c);
    }
  }
  std::sort(ranked.begin(), ranked.end(), std::greater<>());
  return ranked;
}

}  // namespace

std::vector<DailyActivity> ComputeDailyActivity(const Trace& trace) {
  return DailyActivityOver(TraceDaySource(trace));
}

std::vector<DailyActivity> StreamingDailyActivity(
    const stream::TraceReader& reader) {
  obs::PhaseTimer timer("analysis.streaming.daily_activity");
  return DailyActivityOver(stream::ReaderDaySource(reader));
}

std::vector<uint32_t> RankedSourcesOnDay(const Trace& trace, int day) {
  return RankDescending(SourcesOnDay(trace, day));
}

std::vector<uint32_t> StreamingRankedSourcesOnDay(
    const stream::TraceReader& reader, int day) {
  return RankDescending(StreamingSourcesOnDay(reader, day));
}

std::vector<uint32_t> RankedSourcesOverall(const Trace& trace) {
  return RankDescending(trace.SourceCounts());
}

LinearFit FitZipfTail(const std::vector<uint32_t>& ranked_sources, size_t skip_head) {
  std::vector<double> ranks;
  std::vector<double> sources;
  for (size_t i = skip_head; i < ranked_sources.size(); ++i) {
    ranks.push_back(static_cast<double>(i + 1));
    sources.push_back(static_cast<double>(ranked_sources[i]));
  }
  return FitLogLog(ranks, sources);
}

std::vector<double> SizesWithPopularityAtLeast(const Trace& trace, uint32_t threshold) {
  const auto counts = trace.SourceCounts();
  std::vector<double> sizes;
  for (size_t f = 0; f < counts.size(); ++f) {
    if (counts[f] >= threshold) {
      sizes.push_back(static_cast<double>(trace.file(FileId(static_cast<uint32_t>(f))).size_bytes));
    }
  }
  return sizes;
}

std::vector<double> AveragePopularity(const Trace& trace) {
  std::vector<uint32_t> days_seen(trace.file_count(), 0);
  // Distinct sources via union caches.
  std::vector<uint32_t> sources(trace.file_count(), 0);
  for (size_t p = 0; p < trace.peer_count(); ++p) {
    for (FileId f : trace.UnionCache(PeerId(static_cast<uint32_t>(p)))) {
      ++sources[f.value];
    }
  }
  // Day-major sweep so each (file, day) is counted exactly once. Days fan
  // out in parallel, each producing a private seen-bitmap; the merge is a
  // plain integer sum, so the result is independent of task ordering.
  const size_t days = trace.last_day() < trace.first_day()
                          ? 0
                          : static_cast<size_t>(trace.last_day() - trace.first_day() + 1);
  std::vector<std::vector<uint8_t>> seen_by_day(days);
  const TraceDaySource source(trace);
  ParallelFor(0, days, [&](size_t d) {
    auto& seen = seen_by_day[d];
    seen.assign(trace.file_count(), 0);
    TraceDaySource::Scratch scratch;
    source.ForEachSnapshot(trace.first_day() + static_cast<int>(d), scratch,
                           [&](uint32_t, const uint32_t* files, size_t count) {
                             for (size_t i = 0; i < count; ++i) {
                               seen[files[i]] = 1;
                             }
                           });
  });
  for (const auto& seen : seen_by_day) {
    for (size_t f = 0; f < seen.size(); ++f) {
      days_seen[f] += seen[f];
    }
  }
  std::vector<double> out(trace.file_count(), 0);
  for (size_t f = 0; f < out.size(); ++f) {
    if (days_seen[f] > 0) {
      out[f] = static_cast<double>(sources[f]) / static_cast<double>(days_seen[f]);
    }
  }
  return out;
}

}  // namespace edk
