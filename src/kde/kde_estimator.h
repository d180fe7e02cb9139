/// \file kde_estimator.h
/// \brief The assembled KDE selectivity estimators of the evaluation.
///
/// Wires the engine, bandwidth selectors, adaptive learner and sample
/// maintenance into the four KDE configurations compared in Section 6.1.1:
///
///  * **Heuristic** — Scott's-rule bandwidth, no adaptation. The paper's
///    stand-in for prior KDE estimators [14, 16].
///  * **Scv** — construction-time Smoothed-Cross-Validation bandwidth.
///  * **Batch** — bandwidth numerically optimized over a training
///    workload (Section 3), static afterwards.
///  * **Periodic** — the deployment recipe of Section 3.4: keep the last
///    q user queries in a ring buffer and periodically re-run the batch
///    optimization over them. Heavier than Adaptive per update, but uses
///    the global optimizer, so it cannot get stuck in a local minimum.
///  * **Adaptive** — Scott init, then continuous mini-batch RMSprop
///    bandwidth updates from query feedback plus Karma/reservoir sample
///    maintenance (Sections 4 & 5). The per-query gradient pass and the
///    Karma scoring pass are ENQUEUED on the device queue, never waited
///    for inline: the gradient runs while the database executes the query
///    and is collected when its feedback arrives; the Karma pass runs
///    while the database processes the next statement and its
///    replacements are collected at the next feedback (Sections 5.5-5.6).

#ifndef FKDE_KDE_KDE_ESTIMATOR_H_
#define FKDE_KDE_KDE_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/table.h"
#include "estimator/estimator.h"
#include "kde/adaptive.h"
#include "kde/batch.h"
#include "kde/engine.h"
#include "kde/karma.h"
#include "kde/reservoir.h"
#include "kde/scv.h"
#include "workload/workload.h"

namespace fkde {

/// \brief Configuration shared by all KDE estimator variants.
struct KdeConfig {
  /// Sample rows kept on the device. The paper's d*4kB memory budget with
  /// 4-byte floats yields 1024 rows regardless of d.
  std::size_t sample_size = 1024;
  KernelType kernel = KernelType::kGaussian;
  /// Loss optimized by the batch and adaptive variants.
  LossType loss = LossType::kQuadratic;
  double lambda = 1e-5;
  std::uint64_t seed = 7;

  AdaptiveOptions adaptive;   ///< Adaptive variant only.
  KarmaOptions karma;         ///< Adaptive variant only.
  BatchOptions batch;         ///< Batch and Periodic variants.
  ScvOptions scv;             ///< SCV variant only.
  bool enable_karma = true;      ///< Adaptive: Karma maintenance on/off.
  bool enable_reservoir = true;  ///< Adaptive: reservoir inserts on/off.
  /// Periodic variant: ring-buffer capacity (the paper suggests "on the
  /// order of a few hundred queries", Section 3.4 step 1).
  std::size_t feedback_window = 256;
  /// Periodic variant: re-run the batch optimization after this many new
  /// feedback observations.
  std::size_t reoptimize_every = 100;
};

/// \brief KDE-based SelectivityEstimator over a device-resident sample.
class KdeSelectivityEstimator : public SelectivityEstimator {
 public:
  enum class Mode { kHeuristic, kScv, kBatch, kPeriodic, kAdaptive };

  /// Builds an estimator over `table` (the model-construction step the
  /// paper triggers from Postgres' ANALYZE). `training` is required for
  /// Mode::kBatch and ignored otherwise. The table pointer is retained:
  /// the adaptive variant draws replacement sample rows from it, exactly
  /// as the paper's maintenance asks the database for fresh tuples.
  static Result<std::unique_ptr<KdeSelectivityEstimator>> Create(
      Mode mode, Device* device, const Table* table, const KdeConfig& config,
      std::span<const Query> training = {});

  /// Multi-device variant: the sample is sharded across `group` and every
  /// engine hot path runs per-shard concurrently (Section 5.4 past one
  /// device's ceiling). The group must outlive the estimator.
  static Result<std::unique_ptr<KdeSelectivityEstimator>> Create(
      Mode mode, DeviceGroup* group, const Table* table,
      const KdeConfig& config, std::span<const Query> training = {});

  std::string name() const override;
  std::size_t dims() const override { return engine_->dims(); }
  double EstimateSelectivity(const Box& box) override;
  void ObserveTrueSelectivity(const Box& box, double selectivity) override;
  void OnInsert(std::span<const double> row,
                std::size_t table_rows_after) override;
  std::size_t ModelBytes() const override;

  // -- The query path: a ring of tickets --------------------------------
  //
  // Every query is a ticket. `StreamBegin` enqueues query k's estimate
  // chain on slot k % depth without waiting, `StreamDeliver` collects the
  // estimate when the optimizer needs it, and `StreamFeedback` applies
  // the query's true selectivity — RMSprop step, Karma collection and
  // replacements, next Karma pass — against the ticket's own slot, so
  // feedback for query k lands correctly while later queries are already
  // in flight. Tickets deliver and retire strictly FIFO (checked).
  //
  // The ring always exists. Outside a streaming session it has depth 1,
  // and the classic pair runs on it: EstimateSelectivity begins and
  // delivers a ticket and leaves it open; ObserveTrueSelectivity feeds
  // back the open ticket, or, for a box it does not hold, begins and
  // delivers a fresh one first. The adaptive gradient pass is enqueued
  // at delivery, the multi-device sample rebalances between passes, and
  // the next estimate supersedes a ticket that never gets feedback.
  // Inside a session (EnableStreaming) the gradient is enqueued at
  // admission so it pipelines behind the estimate, and the rebalancer
  // is frozen.

  /// Switches the model into streamed serving with `depth` in-flight
  /// tickets. Quiesces first (retiring the open depth-1 ticket, so slot
  /// 0 is free) and freezes the sample rebalancer for the duration.
  /// Requires no streamed tickets in flight.
  Status EnableStreaming(std::size_t depth);

  /// Drains the device queues and returns to the depth-1 ring. Requires
  /// all tickets retired.
  void DisableStreaming();

  /// Session depth; 0 outside a streaming session.
  std::size_t streaming_depth() const { return stream_depth_; }
  /// Tickets begun but not yet retired — outside a session, the open
  /// ticket of the last estimate, if it got no feedback yet.
  std::size_t stream_in_flight() const {
    return static_cast<std::size_t>(next_ticket_ - oldest_ticket_);
  }

  /// Admits `box`: enqueues its estimate chain (in a session, plus the
  /// adaptive gradient pass) and returns the ticket. Requires a free
  /// slot (stream_in_flight() below the ring depth).
  std::uint64_t StreamBegin(const Box& box);

  /// Waits for `ticket`'s estimate read-backs and returns the clamped
  /// selectivity. Must be called FIFO, once per ticket.
  double StreamDeliver(std::uint64_t ticket);

  /// Retires `ticket` (delivered, FIFO), freeing its slot for the next
  /// admission, and applies its true selectivity. A `selectivity` that
  /// is not in [0, 1] (NaN included) is dropped: the ticket retires and
  /// the model does not change.
  void StreamFeedback(std::uint64_t ticket, double selectivity);

  /// Retires `ticket` (delivered, FIFO) WITHOUT feedback — the frozen-
  /// model path. A pipelined gradient left on the slot is superseded
  /// when the slot is reused.
  void StreamRetire(std::uint64_t ticket);

  /// Folds every in-flight device pass into host state so the model can
  /// be serialized or torn down without losing behavior: the open
  /// depth-1 ticket retires and its gradient is collected and discarded
  /// (the next feedback for its box recomputes it, bitwise-identically),
  /// and a pending Karma pass is collected into `pending_karma_slots_`,
  /// to be applied at the next feedback exactly as the non-quiesced path
  /// would. Estimates before and after a quiesce are unchanged;
  /// snapshot/eviction call this. Requires no streamed tickets in
  /// flight.
  void Quiesce();

  /// Current bandwidth (host copy) — diagnostics and tests.
  const std::vector<double>& bandwidth() const { return engine_->bandwidth(); }
  Mode mode() const { return mode_; }
  KdeEngine* engine() { return engine_.get(); }
  /// Sample points replaced by Karma/shortcut so far.
  std::size_t karma_replacements() const { return karma_replacements_; }
  /// Batch re-optimizations run so far (Periodic mode).
  std::size_t reoptimizations() const { return reoptimizations_; }
  /// Current feedback ring contents (Periodic mode; diagnostics/tests).
  const std::vector<Query>& feedback_ring() const { return feedback_ring_; }
  /// Report of the construction-time batch optimization (Batch mode).
  const BatchReport& batch_report() const { return batch_report_; }

 private:
  /// Snapshot codec (kde/snapshot.cc): reads/writes the private model
  /// state and rebuilds estimators outside the Create path.
  friend class ModelSnapshotAccess;

  KdeSelectivityEstimator(Mode mode, const Table* table,
                          const KdeConfig& config);

  /// Shared model construction once `sample_` exists (sample load, engine,
  /// per-mode setup).
  static Result<std::unique_ptr<KdeSelectivityEstimator>> CreateCommon(
      std::unique_ptr<KdeSelectivityEstimator> est, const Table* table,
      const KdeConfig& config, std::span<const Query> training);

  /// Replaces the sample rows queued in `pending_karma_slots_` with fresh
  /// table tuples (one rng_ draw + d-float transfer each) and clears the
  /// queue. Both the live feedback path and the snapshot-restored path
  /// apply replacements through here, so a quiesce never reorders them.
  void ApplyPendingKarma();

  /// Periodic-mode feedback: ring-buffer append plus the due
  /// re-optimization.
  void ObservePeriodicFeedback(const Box& box, double selectivity);

  /// One query's host-side state, alive from StreamBegin until the slot
  /// is reused; ticket k lives in entry (and engine slot) k % depth.
  struct StreamTicket {
    Box box;                   ///< For the Karma pass at feedback time.
    double raw_estimate = 0.0; ///< Unclamped, for the loss derivative.
    bool delivered = false;
  };

  /// Ring entry, and engine slot, of ticket `id`.
  std::size_t SlotOf(std::uint64_t id) const {
    return static_cast<std::size_t>(id % tickets_.size());
  }

  FKDE_SNAPSHOT_EXCLUDE("serialized in the snapshot header; restore feeds it through the constructor")
  Mode mode_;
  FKDE_SNAPSHOT_EXCLUDE("borrowed pointer; the caller re-supplies the table at restore")
  const Table* table_;
  FKDE_SNAPSHOT_EXCLUDE("serialized in the snapshot config block; restore feeds it through the constructor")
  KdeConfig config_;
  Rng rng_;
  std::unique_ptr<DeviceSample> sample_;
  std::unique_ptr<KdeEngine> engine_;
  std::optional<AdaptiveBandwidth> adaptive_;
  std::optional<KarmaMaintainer> karma_;
  std::optional<ReservoirMaintainer> reservoir_;
  BatchReport batch_report_;

  std::size_t karma_replacements_ = 0;
  /// Replacement slots collected from the device but not yet applied:
  /// Karma lands its replacements one query late (Section 5.6), so a
  /// collected pass parks here until the next feedback. Survives
  /// snapshots, which is what keeps evict/restore bitwise-faithful.
  std::vector<std::size_t> pending_karma_slots_;

  // The ticket ring: one entry outside a session, `stream_depth_` inside.
  // Tickets [oldest_ticket_, next_ticket_) are in flight.
  FKDE_SNAPSHOT_EXCLUDE("ticket ring; the Quiesce() that precedes every snapshot retires every ticket")
  std::vector<StreamTicket> tickets_;
  FKDE_SNAPSHOT_EXCLUDE("session-local ticket counter; EnableStreaming resets it to 0 per session")
  std::uint64_t next_ticket_ = 0;
  FKDE_SNAPSHOT_EXCLUDE("session-local ticket counter; EnableStreaming resets it to 0 per session")
  std::uint64_t oldest_ticket_ = 0;
  FKDE_SNAPSHOT_EXCLUDE("streaming session state; a restored model starts in classic mode until re-enabled")
  std::size_t stream_depth_ = 0;

  // Periodic mode: ring buffer of recent feedback (Section 3.4 step 1).
  std::vector<Query> feedback_ring_;
  std::size_t ring_next_ = 0;
  std::size_t feedback_since_optimize_ = 0;
  std::size_t reoptimizations_ = 0;
};

/// Human-readable estimator names matching the paper's plots.
std::string KdeModeName(KdeSelectivityEstimator::Mode mode);

}  // namespace fkde

#endif  // FKDE_KDE_KDE_ESTIMATOR_H_
