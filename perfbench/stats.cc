#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile `p` among `n` samples.
std::size_t Rank(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard against 0.99 * 100 landing a hair above an integer.
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(exact - 1e-9 * exact));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double p) {
  return sorted[Rank(sorted.size(), p) - 1];
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.mean = std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  s.p50 = NearestRank(values, 50.0);
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (values.size() - Rank(values.size(), p) >= 10) {
      s.resolved_percentile = p;
    }
  }
  return s;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return NearestRank(values, p);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

}  // namespace perfbench
