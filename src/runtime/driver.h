/// \file driver.h
/// \brief Feedback-loop driver: the evaluation protocol of Section 6.
///
/// For each query the driver (1) asks the estimator for a selectivity,
/// (2) "executes" the query to obtain the truth, (3) feeds the truth back
/// (self-tuning estimators adapt here), and (4) records the absolute
/// estimation error |p̂ - p| — the paper's quality metric.
///
/// Step (2) is where the paper's overlap happens: work the estimator
/// enqueued during step (1) — the adaptive gradient pass, the previous
/// query's Karma scoring — executes on the device while the database
/// executes the query. In `RunLive` the executor's scan genuinely runs
/// concurrently with the enqueued device commands — there is no
/// synchronization point between the estimate and the feedback. Every
/// run serves its queries one at a time, through the estimator's depth-1
/// ticket ring, except `RunStreamed`, which keeps a window in flight.
/// Runs that model the execution window on the device clock
/// (`Device::AdvanceHostTime`) drive the estimator directly, as fig7
/// does, or through a `StreamingExecutor`.

#ifndef FKDE_RUNTIME_DRIVER_H_
#define FKDE_RUNTIME_DRIVER_H_

#include <span>
#include <vector>

#include "common/stats.h"
#include "estimator/estimator.h"
#include "runtime/catalog.h"
#include "runtime/executor.h"
#include "runtime/streaming_executor.h"
#include "workload/workload.h"

namespace fkde {

/// \brief Per-workload error record.
struct RunStats {
  /// |estimate - truth| per query, in execution order.
  std::vector<double> absolute_errors;
  /// Signed (estimate - truth) per query.
  std::vector<double> signed_errors;
  /// Truths per query (for relative metrics downstream).
  std::vector<double> truths;

  double MeanAbsoluteError() const;
  Summary AbsoluteErrorSummary() const { return Summarize(absolute_errors); }
};

/// \brief Runs workloads through estimators with query feedback.
class FeedbackDriver {
 public:
  /// The queries carry their exact selectivity from generation time (the
  /// table must be unchanged since), so no re-execution is needed.
  static RunStats RunPrecomputed(SelectivityEstimator* estimator,
                                 std::span<const Query> workload);

  /// Runs a workload computing the truth against the live table via
  /// `executor` (used when the table mutates between queries).
  static RunStats RunLive(SelectivityEstimator* estimator,
                          Executor* executor, std::span<const Box> queries);

  /// Feeds a training workload (estimate + feedback) without recording —
  /// the warm-up used to let self-tuning estimators (Adaptive, STHoles)
  /// absorb the training phase that Batch receives explicitly.
  static void Train(SelectivityEstimator* estimator,
                    std::span<const Query> workload);

  /// Runs a precomputed workload through one catalog-served model: the
  /// serving analogue of RunPrecomputed, where residency (lazy build,
  /// eviction, fault-back) is the catalog's business.
  static Result<RunStats> RunCatalog(ModelCatalog* catalog,
                                     const ModelKey& key,
                                     std::span<const Query> workload);

  /// Streamed analogue of RunPrecomputed: keeps `options.window` queries
  /// in flight through a `StreamingExecutor` (the estimator must be
  /// hosted on a DeviceGroup) and reports errors in arrival order.
  /// `report`, when non-null, receives the timing/throughput report.
  static Result<RunStats> RunStreamed(KdeSelectivityEstimator* estimator,
                                      std::span<const Query> workload,
                                      const StreamingOptions& options = {},
                                      StreamingReport* report = nullptr);
};

}  // namespace fkde

#endif  // FKDE_RUNTIME_DRIVER_H_
