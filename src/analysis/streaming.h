// Out-of-core entry points of the day-sweep analyses (DESIGN.md §6h).
//
// Each function here runs the same body as its Trace-based counterpart,
// on an EDKT v2 stream::TraceReader instead of an in-RAM Trace: every
// analysis is written once against a day source (src/trace/day_source.h)
// and defined next to its Trace entry point. The reader source decodes one
// day segment at a time, blocked days block-parallel, so memory is bounded
// by one day's segment (times the worker count for the parallel sweeps),
// never by the trace: a 10M-peer multi-week trace analyses in well under
// 2 GB (bench/bench_stream.cc measures this). Results are byte-identical
// to the Trace entry points on the materialised trace, at any thread count
// and under either day encoding.
//
// Deliberately NOT here: the whole-trace union analyses
// (RankedSourcesOverall, AveragePopularity, BuildUnionCaches consumers).
// Their state is O(distinct peer-file pairs) — the thing an out-of-core
// pipeline cannot hold — so they stay on the materialising path.

#ifndef SRC_ANALYSIS_STREAMING_H_
#define SRC_ANALYSIS_STREAMING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/analysis/clustering.h"
#include "src/analysis/overlap.h"
#include "src/analysis/popularity.h"
#include "src/trace/stream/trace_reader.h"

namespace edk {

// ComputeDailyActivity (Figs. 1-3).
std::vector<DailyActivity> StreamingDailyActivity(
    const stream::TraceReader& reader);

// SourcesOnDay (src/analysis/spread.h).
std::vector<uint32_t> StreamingSourcesOnDay(const stream::TraceReader& reader,
                                            int day);

// RankedSourcesOnDay (one Fig. 5 curve).
std::vector<uint32_t> StreamingRankedSourcesOnDay(
    const stream::TraceReader& reader, int day);

// FileSpreadOverTime (Fig. 8).
std::vector<double> StreamingFileSpreadOverTime(
    const stream::TraceReader& reader, FileId file);

// FileRanksOverTime (Figs. 9-10).
std::vector<std::vector<uint32_t>> StreamingFileRanksOverTime(
    const stream::TraceReader& reader, const std::vector<FileId>& files);

// OverlapHistogramOnDay.
std::vector<std::pair<uint32_t, uint64_t>> StreamingOverlapHistogramOnDay(
    const stream::TraceReader& reader, int day);

// ComputeOverlapEvolution (Figs. 15-17): cohort selection on the first
// day's view, then a parallel day sweep that decodes each day once.
std::vector<OverlapCohort> StreamingOverlapEvolution(
    const stream::TraceReader& reader, const OverlapEvolutionOptions& options);

// ClusteringCurveOnDay (Figs. 13-14). The mask, if given, is indexed by
// file id as usual.
ClusteringCurve StreamingClusteringCurveOnDay(
    const stream::TraceReader& reader, int day, size_t max_k,
    const std::vector<bool>* file_mask = nullptr);

}  // namespace edk

#endif  // SRC_ANALYSIS_STREAMING_H_
