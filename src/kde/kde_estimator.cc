#include "kde/kde_estimator.h"

#include <algorithm>
#include <cmath>

namespace fkde {

std::string KdeModeName(KdeSelectivityEstimator::Mode mode) {
  switch (mode) {
    case KdeSelectivityEstimator::Mode::kHeuristic:
      return "kde_heuristic";
    case KdeSelectivityEstimator::Mode::kScv:
      return "kde_scv";
    case KdeSelectivityEstimator::Mode::kBatch:
      return "kde_batch";
    case KdeSelectivityEstimator::Mode::kPeriodic:
      return "kde_periodic";
    case KdeSelectivityEstimator::Mode::kAdaptive:
      return "kde_adaptive";
  }
  return "kde_unknown";
}

KdeSelectivityEstimator::KdeSelectivityEstimator(Mode mode,
                                                 const Table* table,
                                                 const KdeConfig& config)
    : mode_(mode),
      table_(table),
      config_(config),
      rng_(config.seed),
      tickets_(1) {}

Result<std::unique_ptr<KdeSelectivityEstimator>>
KdeSelectivityEstimator::Create(Mode mode, Device* device, const Table* table,
                                const KdeConfig& config,
                                std::span<const Query> training) {
  if (device == nullptr || table == nullptr) {
    return Status::InvalidArgument("device and table must be non-null");
  }
  if (table->empty()) {
    return Status::FailedPrecondition("cannot build a model on an empty table");
  }
  if (config.sample_size == 0) {
    return Status::InvalidArgument("sample_size must be positive");
  }
  std::unique_ptr<KdeSelectivityEstimator> est(
      new KdeSelectivityEstimator(mode, table, config));
  est->sample_ = std::make_unique<DeviceSample>(
      device, std::min(config.sample_size, table->num_rows()),
      table->num_cols());
  return CreateCommon(std::move(est), table, config, training);
}

Result<std::unique_ptr<KdeSelectivityEstimator>>
KdeSelectivityEstimator::Create(Mode mode, DeviceGroup* group,
                                const Table* table, const KdeConfig& config,
                                std::span<const Query> training) {
  if (group == nullptr || table == nullptr) {
    return Status::InvalidArgument("group and table must be non-null");
  }
  if (table->empty()) {
    return Status::FailedPrecondition("cannot build a model on an empty table");
  }
  if (config.sample_size == 0) {
    return Status::InvalidArgument("sample_size must be positive");
  }
  std::unique_ptr<KdeSelectivityEstimator> est(
      new KdeSelectivityEstimator(mode, table, config));
  est->sample_ = std::make_unique<DeviceSample>(
      group, std::min(config.sample_size, table->num_rows()),
      table->num_cols());
  return CreateCommon(std::move(est), table, config, training);
}

Result<std::unique_ptr<KdeSelectivityEstimator>>
KdeSelectivityEstimator::CreateCommon(
    std::unique_ptr<KdeSelectivityEstimator> est, const Table* table,
    const KdeConfig& config, std::span<const Query> training) {
  const Mode mode = est->mode_;
  // ANALYZE step: draw the sample and push it to the device in one bulk
  // transfer per shard; the engine then initializes the bandwidth via
  // Scott's rule computed on the device (Section 5.2).
  FKDE_RETURN_NOT_OK(est->sample_->LoadFromTable(*table, &est->rng_));
  est->engine_ =
      std::make_unique<KdeEngine>(est->sample_.get(), config.kernel);

  switch (mode) {
    case Mode::kHeuristic:
      break;  // Scott's rule is already installed.
    case Mode::kScv: {
      // Read the sample back once (one transfer per shard) for the
      // host-side SCV criterion.
      const std::size_t s = est->sample_->size();
      const std::size_t d = est->sample_->dims();
      const std::vector<double> host_sample = est->sample_->GatherRows();
      FKDE_ASSIGN_OR_RETURN(
          std::vector<double> bandwidth,
          ScvSelectBandwidth(host_sample, s, d, est->engine_->bandwidth(),
                             config.scv));
      FKDE_RETURN_NOT_OK(est->engine_->SetBandwidth(bandwidth));
      break;
    }
    case Mode::kBatch: {
      if (training.empty()) {
        return Status::InvalidArgument(
            "batch mode requires a training workload");
      }
      BatchOptions batch = config.batch;
      batch.loss = config.loss;
      batch.lambda = config.lambda;
      FKDE_ASSIGN_OR_RETURN(
          est->batch_report_,
          OptimizeBandwidthBatch(est->engine_.get(), training, batch,
                                 &est->rng_));
      break;
    }
    case Mode::kPeriodic: {
      if (config.feedback_window == 0 || config.reoptimize_every == 0) {
        return Status::InvalidArgument(
            "periodic mode needs a positive window and interval");
      }
      est->feedback_ring_.reserve(config.feedback_window);
      break;  // Scott start; the first re-optimization tunes it.
    }
    case Mode::kAdaptive: {
      est->adaptive_.emplace(table->num_cols(), config.adaptive);
      if (config.enable_karma) {
        // Karma keeps its own loss (relative-scale by default) — see
        // KarmaOptions::loss. The bandwidth loss is independent.
        est->karma_.emplace(est->engine_.get(), config.karma);
      }
      if (config.enable_reservoir) {
        est->reservoir_.emplace(est->sample_.get(), &est->rng_);
      }
      break;
    }
  }
  return est;
}

std::string KdeSelectivityEstimator::name() const {
  return KdeModeName(mode_);
}

double KdeSelectivityEstimator::EstimateSelectivity(const Box& box) {
  // One query at a time is the depth-1 ticket ring: begin and deliver a
  // ticket and leave it open for its feedback. A ticket that never gets
  // feedback is superseded here, and its pending gradient pass by the
  // next one on the same slot.
  FKDE_CHECK_MSG(stream_depth_ == 0, "classic call inside a streaming session");
  if (stream_in_flight() > 0) StreamRetire(oldest_ticket_);
  return StreamDeliver(StreamBegin(box));
}

void KdeSelectivityEstimator::ObserveTrueSelectivity(const Box& box,
                                                     double selectivity) {
  FKDE_CHECK_MSG(stream_depth_ == 0, "classic call inside a streaming session");
  if (!IsSelectivity(selectivity)) return;
  if (mode_ != Mode::kAdaptive) {
    // No device pass pairs with this feedback: the box alone is enough.
    if (mode_ == Mode::kPeriodic) ObservePeriodicFeedback(box, selectivity);
    return;
  }
  // Out-of-order feedback (a box the open ticket does not hold, or a
  // second feedback for the same box) is the one slow path: a fresh
  // ticket for `box`, so that the gradient pass and the retained
  // contributions Karma reuses both match it. It pays the full gradient
  // cost inline.
  if (stream_in_flight() == 0 ||
      !(tickets_[SlotOf(oldest_ticket_)].box == box)) {
    if (stream_in_flight() > 0) StreamRetire(oldest_ticket_);
    StreamDeliver(StreamBegin(box));
  }
  StreamFeedback(oldest_ticket_, selectivity);
}

void KdeSelectivityEstimator::ObservePeriodicFeedback(const Box& box,
                                                      double selectivity) {
  // Section 3.4 deployment: remember the last q queries in a ring
  // buffer and periodically re-solve optimization problem (5) over
  // them, starting from the current bandwidth.
  Query query;
  query.box = box;
  query.selectivity = selectivity;
  if (feedback_ring_.size() < config_.feedback_window) {
    feedback_ring_.push_back(std::move(query));
  } else {
    feedback_ring_[ring_next_] = std::move(query);
    ring_next_ = (ring_next_ + 1) % config_.feedback_window;
  }
  ++feedback_since_optimize_;
  if (feedback_since_optimize_ >= config_.reoptimize_every &&
      feedback_ring_.size() >= config_.reoptimize_every) {
    feedback_since_optimize_ = 0;
    BatchOptions batch = config_.batch;
    batch.loss = config_.loss;
    batch.lambda = config_.lambda;
    FKDE_CHECK_OK(
        OptimizeBandwidthBatch(engine_.get(), feedback_ring_, batch, &rng_)
            .status());
    ++reoptimizations_;
  }
}

Status KdeSelectivityEstimator::EnableStreaming(std::size_t depth) {
  if (depth == 0) {
    return Status::InvalidArgument("streaming depth must be >= 1");
  }
  // Retire the open one-at-a-time ticket and fold pending device state
  // (its gradient pass, a pending Karma pass) into host state, so slot 0
  // starts the session clean. Requires no streamed tickets in flight.
  Quiesce();
  FKDE_RETURN_NOT_OK(engine_->EnableStreaming(depth));
  stream_depth_ = depth;
  tickets_.resize(depth);
  // Ticket ids are session-local: they restart at 0 for every streaming
  // session. Carrying the counter across sessions made it hidden
  // persistent state — a restored model would hand out different ids
  // than the original, breaking streamed replay equivalence.
  next_ticket_ = 0;
  oldest_ticket_ = 0;
  return Status::OK();
}

void KdeSelectivityEstimator::DisableStreaming() {
  if (stream_depth_ == 0) return;
  FKDE_CHECK_MSG(stream_in_flight() == 0,
                 "disable requires all streamed tickets retired");
  engine_->DisableStreaming();
  stream_depth_ = 0;
  tickets_.resize(1);
}

std::uint64_t KdeSelectivityEstimator::StreamBegin(const Box& box) {
  FKDE_CHECK_MSG(stream_in_flight() < tickets_.size(),
                 "admission window full: deliver feedback first");
  const std::uint64_t id = next_ticket_++;
  const std::size_t slot = SlotOf(id);
  StreamTicket& ticket = tickets_[slot];
  ticket.box = box;  // Reuses the ring entry's storage.
  ticket.delivered = false;
  engine_->BeginEstimateSlot(box, slot);
  if (stream_depth_ > 0 && adaptive_.has_value()) {
    // In a session the gradient pipelines right behind the estimate
    // chain: it crunches while later queries stream in and is collected
    // at feedback time.
    engine_->EnqueueGradientSlot(slot);
  }
  return id;
}

double KdeSelectivityEstimator::StreamDeliver(std::uint64_t ticket) {
  FKDE_CHECK_MSG(stream_in_flight() > 0, "no in-flight tickets");
  FKDE_CHECK_MSG(ticket == oldest_ticket_, "tickets deliver FIFO");
  const std::size_t slot = SlotOf(ticket);
  StreamTicket& front = tickets_[slot];
  FKDE_CHECK_MSG(!front.delivered, "ticket already delivered");
  front.raw_estimate = engine_->FinishEstimateSlot(slot);
  front.delivered = true;
  if (stream_depth_ == 0 && adaptive_.has_value()) {
    // One query at a time, the gradient follows the estimate read-back
    // (Section 5.5, steps 5-6): only the estimate is on the optimizer's
    // critical path, and the rebalancer measures the estimate pass alone.
    engine_->EnqueueGradientSlot(slot);
  }
  return std::clamp(front.raw_estimate, 0.0, 1.0);
}

void KdeSelectivityEstimator::StreamRetire(std::uint64_t ticket) {
  FKDE_CHECK_MSG(stream_in_flight() > 0, "no in-flight tickets");
  FKDE_CHECK_MSG(ticket == oldest_ticket_, "tickets retire FIFO");
  FKDE_CHECK_MSG(tickets_[SlotOf(ticket)].delivered, "retire before delivery");
  ++oldest_ticket_;
}

void KdeSelectivityEstimator::StreamFeedback(std::uint64_t ticket,
                                             double selectivity) {
  StreamRetire(ticket);
  // The retired entry stays intact until a later StreamBegin reuses it.
  const std::size_t slot = SlotOf(ticket);
  const StreamTicket& front = tickets_[slot];
  if (!IsSelectivity(selectivity)) return;
  if (mode_ == Mode::kPeriodic) {
    ObservePeriodicFeedback(front.box, selectivity);
    return;
  }
  if (mode_ != Mode::kAdaptive) return;

  // Listing 1: collect the ticket's gradient pass — by now it has been
  // hidden behind the query's execution — chain it with ∂L/∂p̂ (eq. 14)
  // from the ticket's raw estimate and feed the per-query loss gradient
  // to RMSprop.
  std::vector<double> est_grad;
  engine_->CollectGradientSlot(slot, &est_grad);
  const double dl_dp = LossDerivative(config_.loss, front.raw_estimate,
                                      selectivity, config_.lambda);
  for (double& g : est_grad) g *= dl_dp;
  std::vector<double> bandwidth = engine_->bandwidth();
  if (adaptive_->Observe(est_grad, &bandwidth)) {
    FKDE_CHECK_OK(engine_->SetBandwidth(bandwidth));
  }

  // Karma maintenance (Section 5.6): first collect the pass enqueued at
  // the PREVIOUS feedback — it ran while this query executed — and
  // replace the sample points it flagged (one d-float row upload each).
  // A quiesce (snapshot/eviction) may already have collected the pass
  // into pending_karma_slots_; either way the replacements apply here.
  // Then point the feedback context at this ticket's slot and enqueue
  // the scoring pass for this feedback: it reuses the retained
  // contributions of the query the feedback belongs to, and runs while
  // the database processes the next statement.
  if (karma_.has_value() && table_ != nullptr && !table_->empty()) {
    if (karma_->update_pending()) {
      const std::vector<std::size_t> slots = karma_->CollectPending();
      pending_karma_slots_.insert(pending_karma_slots_.end(), slots.begin(),
                                  slots.end());
    }
    ApplyPendingKarma();
    engine_->SetFeedbackContext(slot, front.raw_estimate);
    karma_->EnqueueUpdate(front.box, selectivity);
  }
}

void KdeSelectivityEstimator::ApplyPendingKarma() {
  for (std::size_t slot : pending_karma_slots_) {
    const std::size_t row = table_->RandomRowIndex(&rng_);
    sample_->ReplaceRow(slot, table_->Row(row));
    karma_->ResetSlot(slot);
    ++karma_replacements_;
  }
  pending_karma_slots_.clear();
}

void KdeSelectivityEstimator::Quiesce() {
  if (stream_depth_ == 0 && stream_in_flight() > 0) {
    // The open one-at-a-time ticket retires. Its gradient pass is
    // collected and dropped: the next feedback for its box takes the
    // slow path, which recomputes the same gradient bitwise (the pass is
    // a deterministic function of sample, bandwidth and box).
    if (adaptive_.has_value()) {
      std::vector<double> discarded;
      engine_->CollectGradientSlot(0, &discarded);
    }
    StreamRetire(oldest_ticket_);
  }
  // Streamed tickets cannot be folded into host state: their slots hold
  // estimates the client has not seen yet. The serving layer retires the
  // stream before snapshotting or evicting a model.
  FKDE_CHECK_MSG(stream_in_flight() == 0,
                 "quiesce with streamed tickets in flight");
  if (karma_.has_value() && karma_->update_pending()) {
    const std::vector<std::size_t> slots = karma_->CollectPending();
    pending_karma_slots_.insert(pending_karma_slots_.end(), slots.begin(),
                                slots.end());
  }
}

void KdeSelectivityEstimator::OnInsert(std::span<const double> row,
                                       std::size_t table_rows_after) {
  if (mode_ != Mode::kAdaptive || !reservoir_.has_value()) return;
  const std::size_t slot = reservoir_->OnInsert(row, table_rows_after);
  if (slot != std::numeric_limits<std::size_t>::max() &&
      karma_.has_value()) {
    karma_->ResetSlot(slot);
  }
}

std::size_t KdeSelectivityEstimator::ModelBytes() const {
  std::size_t bytes = engine_->ModelBytes();
  if (karma_.has_value()) {
    bytes += sample_->size() * sizeof(double) + (sample_->size() + 7) / 8;
  }
  return bytes;
}

}  // namespace fkde
