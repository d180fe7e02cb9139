/// \file estimator.h
/// \brief Common interface for all multidimensional selectivity estimators.
///
/// The evaluation (Section 6) compares five estimators — three KDE
/// variants, SCV-KDE, and the STHoles histogram — under one protocol:
/// estimate, execute, feed back the true selectivity, apply database
/// update notifications. This interface is that protocol; the
/// `FeedbackDriver` (runtime/driver.h) and every benchmark run against it.

#ifndef FKDE_ESTIMATOR_ESTIMATOR_H_
#define FKDE_ESTIMATOR_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <string>

#include "data/box.h"

namespace fkde {

/// True for a selectivity: a value in [0, 1] (so never NaN or infinite).
/// Feedback outside it carries no loss gradient worth following.
inline bool IsSelectivity(double selectivity) {
  return selectivity >= 0.0 && selectivity <= 1.0;
}

/// \brief Abstract multidimensional range-selectivity estimator.
///
/// Selectivities are fractions in [0, 1] of the relation's cardinality.
/// Implementations must tolerate feedback and update notifications arriving
/// in any order relative to estimates (the database is free to reorder).
class SelectivityEstimator {
 public:
  virtual ~SelectivityEstimator() = default;

  /// Short name for reports ("kde_batch", "stholes", ...).
  virtual std::string name() const = 0;

  /// Dimensionality of the relation this estimator models.
  virtual std::size_t dims() const = 0;

  /// Estimates the fraction of tuples inside `box`.
  virtual double EstimateSelectivity(const Box& box) = 0;

  /// Query feedback: after the database executed the query, the true
  /// selectivity of `box` is reported back. Self-tuning estimators use
  /// this to refine their model; static ones may ignore it.
  virtual void ObserveTrueSelectivity(const Box& box, double selectivity) {
    (void)box;
    (void)selectivity;
  }

  /// Notification: `row` was inserted. `table_rows_after` is the relation
  /// cardinality after the insert (needed by reservoir sampling).
  virtual void OnInsert(std::span<const double> row,
                        std::size_t table_rows_after) {
    (void)row;
    (void)table_rows_after;
  }

  /// Notification: some rows were deleted. `table_rows_after` is the
  /// relation cardinality after the delete. Estimators without immediate
  /// delete handling (e.g. Karma-based maintenance) may ignore this and
  /// converge through feedback instead.
  virtual void OnDelete(std::size_t rows_deleted,
                        std::size_t table_rows_after) {
    (void)rows_deleted;
    (void)table_rows_after;
  }

  /// Approximate model footprint in bytes (for the d*4kB budget parity of
  /// Section 6.2).
  virtual std::size_t ModelBytes() const = 0;
};

}  // namespace fkde

#endif  // FKDE_ESTIMATOR_ESTIMATOR_H_
