// Temporal popularity analyses (paper §3): Fig. 8 (spread of the most
// popular files over time) and Figs. 9-10 (rank evolution of a day's top
// files).

#ifndef SRC_ANALYSIS_SPREAD_H_
#define SRC_ANALYSIS_SPREAD_H_

#include <cstdint>
#include <vector>

#include "src/trace/trace.h"

namespace edk {

// Files with the most distinct sources over the whole trace, most popular
// first.
std::vector<FileId> TopFilesOverall(const Trace& trace, size_t k);

// Files with the most sources on one day, most popular first.
std::vector<FileId> TopFilesOnDay(const Trace& trace, int day, size_t k);

// Sources per file on one day, indexed by file id (0 for files nobody
// shares that day).
std::vector<uint32_t> SourcesOnDay(const Trace& trace, int day);

// Fraction of scanned clients sharing `file` on each day of the trace
// (Fig. 8's "spread"). Entry d corresponds to day first_day + d; days with
// no scanned client yield 0.
std::vector<double> FileSpreadOverTime(const Trace& trace, FileId file);

// Rank (1 = most replicated) of `file` among all files on each day
// (Figs. 9-10). Days where the file has no sources yield 0, as does every
// day for a file id outside the trace's file table.
std::vector<uint32_t> FileRankOverTime(const Trace& trace, FileId file);

// Batched variant: ranks for several files in one sweep over the trace.
std::vector<std::vector<uint32_t>> FileRanksOverTime(const Trace& trace,
                                                     const std::vector<FileId>& files);

}  // namespace edk

#endif  // SRC_ANALYSIS_SPREAD_H_
