/// \file stats.h
/// \brief Timing statistics of the benchmark: nearest-rank percentiles with
/// the sample count and the highest percentile the samples resolve.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value at
/// rank ceil(p/100 * n), with p in (0, 100].
double NearestRank(const std::vector<double>& sorted, double p);

/// \brief Summary of one timing series.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  /// Highest of the percentiles 50, 90, 99, 99.9 and 99.99 that has at
  /// least ten samples beyond it; 0 when even the median has fewer.
  double resolved_percentile = 0.0;
};

/// Summarizes `values` (any order). An empty series yields all zeros.
Summary Summarize(std::vector<double> values);

/// Nearest-rank percentile `p` of `values` (any order); 0 for an empty
/// series.
double Percentile(std::vector<double> values, double p);

/// Median of `values` (nearest rank); 0 for an empty series.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
