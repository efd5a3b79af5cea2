#include "src/analysis/spread.h"

#include <algorithm>
#include <numeric>

#include "src/analysis/streaming.h"
#include "src/exec/parallel.h"
#include "src/trace/day_source.h"

namespace edk {

namespace {

std::vector<FileId> TopKFromCounts(const std::vector<uint32_t>& counts, size_t k) {
  std::vector<uint32_t> indices(counts.size());
  std::iota(indices.begin(), indices.end(), 0);
  const size_t top = std::min(k, indices.size());
  std::partial_sort(indices.begin(), indices.begin() + static_cast<long>(top),
                    indices.end(), [&counts](uint32_t a, uint32_t b) {
                      if (counts[a] != counts[b]) {
                        return counts[a] > counts[b];
                      }
                      return a < b;
                    });
  std::vector<FileId> out;
  out.reserve(top);
  for (size_t i = 0; i < top; ++i) {
    if (counts[indices[i]] == 0) {
      break;
    }
    out.push_back(FileId(indices[i]));
  }
  return out;
}

// Per-worker count arrays summed element-wise: integer addition is
// order-free, so the counts are the serial scan's for any thread count.
template <typename Source>
std::vector<uint32_t> SourcesOnDayOver(const Source& source, int day) {
  std::vector<std::vector<uint32_t>> counts = ScanDays(
      source, day, day, std::vector<uint32_t>(source.file_count(), 0),
      [](std::vector<uint32_t>& own, int, const uint32_t* files, size_t count) {
        for (size_t i = 0; i < count; ++i) {
          ++own[files[i]];
        }
      });
  if (counts.empty()) {
    return std::vector<uint32_t>(source.file_count(), 0);
  }
  for (size_t w = 1; w < counts.size(); ++w) {
    for (size_t f = 0; f < counts[0].size(); ++f) {
      counts[0][f] += counts[w][f];
    }
  }
  return std::move(counts[0]);
}

template <typename Source>
std::vector<double> FileSpreadOver(const Source& source, FileId file) {
  std::vector<double> out;
  const int first = source.first_day();
  if (source.last_day() < first) {
    return out;
  }
  const size_t days = static_cast<size_t>(source.last_day() - first + 1);
  // One scan over every block of every day; per-worker per-day counters
  // merge by integer sums.
  struct Partial {
    std::vector<uint32_t> scanned;
    std::vector<uint32_t> holders;
  };
  const std::vector<Partial> partials = ScanDays(
      source, first, source.last_day(),
      Partial{std::vector<uint32_t>(days, 0), std::vector<uint32_t>(days, 0)},
      [first, file](Partial& part, int day, const uint32_t* files, size_t count) {
        const size_t d = static_cast<size_t>(day - first);
        ++part.scanned[d];
        if (std::binary_search(files, files + count, file.value)) {
          ++part.holders[d];
        }
      });
  out.assign(days, 0.0);
  for (size_t d = 0; d < days; ++d) {
    uint32_t scanned = 0;
    uint32_t holders = 0;
    for (const Partial& part : partials) {
      scanned += part.scanned[d];
      holders += part.holders[d];
    }
    if (scanned > 0) {
      out[d] = static_cast<double>(holders) / static_cast<double>(scanned);
    }
  }
  return out;
}

template <typename Source>
std::vector<std::vector<uint32_t>> FileRanksOver(
    const Source& source, const std::vector<FileId>& files) {
  std::vector<std::vector<uint32_t>> out(files.size());
  const int first = source.first_day();
  if (source.last_day() < first) {
    return out;
  }
  const size_t days = static_cast<size_t>(source.last_day() - first + 1);
  for (auto& series : out) {
    series.assign(days, 0);
  }
  // Each day recomputes the full per-file source counts — the expensive
  // part — and writes only the (file, day) slots for that day, so the day
  // loop fans out without any cross-task state. (The counting scan nests
  // its own ParallelFor, deadlock-free by the caller-participates
  // contract.)
  ParallelFor(0, days, [&](size_t d) {
    const auto counts = SourcesOnDayOver(source, first + static_cast<int>(d));
    for (size_t i = 0; i < files.size(); ++i) {
      // A file outside the id space is held by nobody: rank 0 every day.
      const uint32_t own =
          files[i].value < counts.size() ? counts[files[i].value] : 0;
      if (own == 0) {
        continue;
      }
      // Rank = 1 + number of files strictly more replicated (ties broken by
      // file id to keep ranks distinct and stable, as in ranked plots).
      uint32_t rank = 1;
      for (size_t f = 0; f < counts.size(); ++f) {
        if (counts[f] > own || (counts[f] == own && f < files[i].value)) {
          ++rank;
        }
      }
      out[i][d] = rank;
    }
  });
  return out;
}

}  // namespace

std::vector<FileId> TopFilesOverall(const Trace& trace, size_t k) {
  return TopKFromCounts(trace.SourceCounts(), k);
}

std::vector<FileId> TopFilesOnDay(const Trace& trace, int day, size_t k) {
  return TopKFromCounts(SourcesOnDay(trace, day), k);
}

std::vector<uint32_t> SourcesOnDay(const Trace& trace, int day) {
  return SourcesOnDayOver(TraceDaySource(trace), day);
}

std::vector<uint32_t> StreamingSourcesOnDay(const stream::TraceReader& reader,
                                            int day) {
  return SourcesOnDayOver(stream::ReaderDaySource(reader), day);
}

std::vector<double> FileSpreadOverTime(const Trace& trace, FileId file) {
  return FileSpreadOver(TraceDaySource(trace), file);
}

std::vector<double> StreamingFileSpreadOverTime(
    const stream::TraceReader& reader, FileId file) {
  return FileSpreadOver(stream::ReaderDaySource(reader), file);
}

std::vector<uint32_t> FileRankOverTime(const Trace& trace, FileId file) {
  return FileRanksOverTime(trace, {file})[0];
}

std::vector<std::vector<uint32_t>> FileRanksOverTime(const Trace& trace,
                                                     const std::vector<FileId>& files) {
  return FileRanksOver(TraceDaySource(trace), files);
}

std::vector<std::vector<uint32_t>> StreamingFileRanksOverTime(
    const stream::TraceReader& reader, const std::vector<FileId>& files) {
  return FileRanksOver(stream::ReaderDaySource(reader), files);
}

}  // namespace edk
