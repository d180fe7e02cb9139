// Unit test of the benchmark's statistics helper on known inputs. Exits
// non-zero on the first failed expectation.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::NearestRank;
  using perfbench::Summarize;

  // 1..100: nearest rank p is the value p itself.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const perfbench::Summary s = Summarize(hundred);
  Expect(s.count == 100, "count of 100 samples");
  Expect(s.p50 == 50.0, "p50 of 1..100 is 50");
  const std::vector<double> sorted(hundred.rbegin(), hundred.rend());
  Expect(NearestRank(sorted, 99.0) == 99.0, "p99 of 1..100 is 99");
  Expect(s.mean == 50.5, "mean of 1..100 is 50.5");
  // p90 leaves 10 samples beyond it, p99 only 1.
  Expect(s.resolved_percentile == 90.0, "1..100 resolves p90, not p99");

  // Nearest rank never interpolates: p50 of {1,2,3,4} is 2, p75 is 3.
  const std::vector<double> four = {1, 2, 3, 4};
  Expect(NearestRank(four, 50.0) == 2.0, "p50 of 1..4 is 2");
  Expect(NearestRank(four, 75.0) == 3.0, "p75 of 1..4 is 3");
  Expect(NearestRank(four, 100.0) == 4.0, "p100 of 1..4 is 4");
  Expect(NearestRank(four, 0.1) == 1.0, "p0.1 of 1..4 is 1");

  // 1000 samples resolve p99 (10 beyond) but not p99.9.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  const perfbench::Summary t = Summarize(thousand);
  Expect(NearestRank(thousand, 99.0) == 990.0, "p99 of 1..1000 is 990");
  Expect(t.resolved_percentile == 99.0, "1..1000 resolves p99");

  // Fewer than 20 samples cannot resolve even the median.
  const perfbench::Summary few = Summarize({3, 1, 2});
  Expect(few.p50 == 2.0, "p50 of {3,1,2} is 2");
  Expect(few.resolved_percentile == 0.0, "3 samples resolve nothing");

  const perfbench::Summary empty = Summarize({});
  Expect(empty.count == 0 && empty.p50 == 0.0, "empty series is zeros");
  Expect(perfbench::Median({5, 1, 9}) == 5.0, "median of {5,1,9} is 5");
  Expect(perfbench::Percentile({4, 2, 3, 1}, 25.0) == 1.0,
         "p25 of {4,2,3,1} is 1");
  Expect(perfbench::Percentile({4, 2, 3, 1}, 75.0) == 3.0,
         "p75 of {4,2,3,1} is 3");
  Expect(perfbench::Percentile({}, 75.0) == 0.0, "p75 of nothing is 0");

  if (failures == 0) std::printf("perfbench_stats_test: all passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
