// Ablation: extrapolation policy. The paper fills unobserved days with the
// intersection of the neighbouring observations ("pessimistic"); the
// alternative carries the previous snapshot forward ("optimistic"). The
// pessimistic fill under-estimates cache contents and therefore overlap —
// the paper's clustering conclusions hold despite this bias, which this
// bench quantifies.

#include <iostream>

#include "bench/bench_common.h"
#include "src/analysis/clustering.h"
#include "src/analysis/popularity.h"
#include "src/common/table.h"
#include "src/trace/filter.h"

int main(int argc, char** argv) {
  const edk::BenchOptions options = edk::ParseBenchOptions(argc, argv);
  edk::PrintBenchHeader("Ablation: pessimistic vs carry-forward extrapolation",
                        "intersection fill under-estimates contents; clustering "
                        "survives the bias",
                        options);

  const edk::Trace filtered = edk::LoadOrGenerateFiltered(options);
  const edk::Trace pessimistic = edk::Extrapolate(filtered);
  const edk::Trace optimistic = edk::ExtrapolateCarryForward(filtered);

  const auto days_p = edk::ComputeDailyActivity(pessimistic);
  const auto days_o = edk::ComputeDailyActivity(optimistic);
  double files_p = 0;
  double files_o = 0;
  for (size_t d = 0; d < days_p.size() && d < days_o.size(); ++d) {
    files_p += static_cast<double>(days_p[d].files_seen);
    files_o += static_cast<double>(days_o[d].files_seen);
  }

  edk::AsciiTable table({"metric", "pessimistic (paper)", "carry-forward"});
  table.AddRow({"mean files per day",
                edk::AsciiTable::FormatCell(files_p / static_cast<double>(days_p.size())),
                edk::AsciiTable::FormatCell(files_o / static_cast<double>(days_o.size()))});

  const int day = pessimistic.first_day() + 3;
  const auto curve_p = edk::ClusteringCurveOnDay(pessimistic, day, 12);
  const auto curve_o = edk::ClusteringCurveOnDay(optimistic, day, 12);
  for (size_t k : {1u, 3u, 5u, 10u}) {
    table.AddRow({"P(another common | >= " + std::to_string(k) + ")",
                  edk::FormatPercent(curve_p.ProbabilityAt(k)),
                  edk::FormatPercent(curve_o.ProbabilityAt(k))});
  }
  table.AddRow({"pairs with >= 1 common file", std::to_string(curve_p.pairs_at_least[1]),
                std::to_string(curve_o.pairs_at_least[1])});
  table.Print(std::cout);
  std::cout << "\n(carry-forward sees more content, hence more pairs; the clustering "
               "correlation itself is stable across policies)\n";
  return 0;
}
