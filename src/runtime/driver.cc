#include "runtime/driver.h"

#include <cmath>

namespace fkde {

namespace {

/// Appends one query's outcome to `stats`.
void Record(double estimate, double truth, RunStats* stats) {
  stats->absolute_errors.push_back(std::abs(estimate - truth));
  stats->signed_errors.push_back(estimate - truth);
  stats->truths.push_back(truth);
}

}  // namespace

double RunStats::MeanAbsoluteError() const {
  if (absolute_errors.empty()) return 0.0;
  double total = 0.0;
  for (double e : absolute_errors) total += e;
  return total / static_cast<double>(absolute_errors.size());
}

RunStats FeedbackDriver::RunPrecomputed(SelectivityEstimator* estimator,
                                        std::span<const Query> workload) {
  RunStats stats;
  for (const Query& query : workload) {
    const double estimate = estimator->EstimateSelectivity(query.box);
    estimator->ObserveTrueSelectivity(query.box, query.selectivity);
    Record(estimate, query.selectivity, &stats);
  }
  return stats;
}

RunStats FeedbackDriver::RunLive(SelectivityEstimator* estimator,
                                 Executor* executor,
                                 std::span<const Box> queries) {
  RunStats stats;
  for (const Box& box : queries) {
    const double estimate = estimator->EstimateSelectivity(box);
    // The executor's scan runs on the host while the commands the
    // estimator just enqueued drain on the device queue — real overlap,
    // no synchronization until the estimator collects its events inside
    // ObserveTrueSelectivity.
    const double truth = executor->TrueSelectivity(box);
    estimator->ObserveTrueSelectivity(box, truth);
    Record(estimate, truth, &stats);
  }
  return stats;
}

void FeedbackDriver::Train(SelectivityEstimator* estimator,
                           std::span<const Query> workload) {
  for (const Query& query : workload) {
    (void)estimator->EstimateSelectivity(query.box);
    estimator->ObserveTrueSelectivity(query.box, query.selectivity);
  }
}

Result<RunStats> FeedbackDriver::RunCatalog(ModelCatalog* catalog,
                                            const ModelKey& key,
                                            std::span<const Query> workload) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("catalog must be non-null");
  }
  RunStats stats;
  for (const Query& query : workload) {
    FKDE_ASSIGN_OR_RETURN(const double estimate,
                          catalog->Estimate(key, query.box));
    FKDE_RETURN_NOT_OK(catalog->Feedback(key, query.box, query.selectivity));
    Record(estimate, query.selectivity, &stats);
  }
  return stats;
}

Result<RunStats> FeedbackDriver::RunStreamed(
    KdeSelectivityEstimator* estimator, std::span<const Query> workload,
    const StreamingOptions& options, StreamingReport* report) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("estimator must be non-null");
  }
  DeviceGroup* group = estimator->engine()->sample()->group();
  if (group == nullptr) {
    return Status::InvalidArgument(
        "streamed runs need a group-hosted estimator");
  }
  std::vector<StreamedQuery> queries(workload.size());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    queries[i].box = workload[i].box;
    queries[i].truth = workload[i].selectivity;
  }
  StreamingExecutor executor(group, options);
  FKDE_ASSIGN_OR_RETURN(StreamingReport streamed,
                        executor.Run(estimator, queries));
  RunStats stats;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    Record(streamed.estimates[i], workload[i].selectivity, &stats);
  }
  if (report != nullptr) *report = std::move(streamed);
  return stats;
}

}  // namespace fkde
