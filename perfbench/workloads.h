/// \file workloads.h
/// \brief The benchmark's workloads and the runner that measures them.
///
/// Every workload is a closed loop: one client thread sends its next call
/// only after the previous one returns. All four share one runner; they
/// differ in shape (models, sample size, device, estimator mode) and in
/// the serving path their calls take into the library:
///
///  * catalog — `ModelCatalog::Estimate` / `Feedback` (serve_hot,
///    serve_churn);
///  * direct  — `EstimateSelectivity` / `ObserveTrueSelectivity` on one
///    estimator (reoptimize);
///  * stream  — the estimator's ticket API (`StreamBegin` /
///    `StreamDeliver` / `StreamFeedback`) with the `StreamingExecutor`'s
///    admit/retire schedule (stream_wide). The executor itself is run
///    for the correctness check and the traced run; the measured loop
///    drives the same schedule itself so it can time each query.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kde/kde_estimator.h"

namespace perfbench {

enum class ServingPath { kCatalog, kDirect, kStream };

struct WorkloadShape {
  const char* name = "";
  const char* device = "cpu";  ///< Topology of the serving device group.
  ServingPath path = ServingPath::kCatalog;
  fkde::KdeSelectivityEstimator::Mode mode =
      fkde::KdeSelectivityEstimator::Mode::kAdaptive;
  std::size_t models = 1;
  std::size_t dims = 3;
  std::size_t table_rows = 20000;
  std::size_t sample_size = 1024;
  /// Catalog device budget, in model footprints; 0 = no budget.
  std::size_t resident_models = 0;
  /// Models are drawn by a seeded Zipf(1.0); otherwise round-robin.
  bool zipf = false;
  std::size_t window = 1;  ///< In-flight queries on the stream path.
  /// Workers of the pool the kernels run on; 0 = the library's global
  /// pool, one worker per core.
  std::size_t pool_threads = 0;
  std::size_t feedback_window = 256;  ///< Periodic mode ring size.
  std::size_t reoptimize_every = 100;  ///< Periodic mode interval.
  /// Periodic mode: every local search of a re-optimization runs exactly
  /// this many iterations, with no early stop, so each re-optimization
  /// does the same work whatever the ring holds (0 = library defaults).
  std::size_t reopt_iterations = 0;
  std::size_t queries_per_model = 2048;  ///< Generated query pool.
  /// A run stops only on a multiple of this many cycles, so each run
  /// holds whole periods of the workload's repeating cost.
  std::size_t round = 1;
  /// estimator.abs_err_mean is taken over this many first cycles; a run
  /// lasts at least this long.
  std::size_t quality_cycles = 1000;
};

/// The workload called `name`, or nullptr.
const WorkloadShape* FindWorkload(const std::string& name);

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run the output checks that replay the calls (the per-estimate range
  /// check always runs).
  bool check = true;
  std::string out_dir;  ///< Where the traced run writes its files.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;  ///< Observations behind the value.
  std::string note;
};

struct RunResult {
  /// End-to-end metrics without tracing; per-layer metrics with it.
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> check_failures;
  /// Per-layer self-time table of the traced run (empty otherwise).
  std::string layer_table;
};

/// Sets up, measures and checks one workload.
RunResult RunWorkload(const WorkloadShape& shape, const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
