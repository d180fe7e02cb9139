#include "kde/kde_estimator.h"

#include <cmath>
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "parallel/device_group.h"
#include "runtime/driver.h"
#include "runtime/topology.h"

namespace fkde {
namespace {

using Mode = KdeSelectivityEstimator::Mode;

struct EstimatorFixture {
  explicit EstimatorFixture(std::uint64_t seed, std::size_t dims = 3,
                            std::size_t rows = 20000) {
    ClusterBoxesParams params;
    params.rows = rows;
    params.dims = dims;
    params.num_clusters = 6;
    params.noise_fraction = 0.05;
    table = std::make_unique<Table>(GenerateClusterBoxes(params, seed));
    device = std::make_unique<Device>(DeviceProfile::OpenClCpu());
    WorkloadGenerator generator(*table);
    Rng rng(seed + 1);
    const WorkloadSpec spec = ParseWorkloadName("dt").ValueOrDie();
    training = generator.Generate(spec, 50, &rng);
    test = generator.Generate(spec, 100, &rng);
  }

  std::unique_ptr<KdeSelectivityEstimator> Build(Mode mode,
                                                 KdeConfig config = {}) {
    config.sample_size = 512;
    return KdeSelectivityEstimator::Create(mode, device.get(), table.get(),
                                           config, training)
        .MoveValueOrDie();
  }

  std::unique_ptr<Table> table;
  std::unique_ptr<Device> device;
  std::vector<Query> training;
  std::vector<Query> test;
};

TEST(KdeEstimator, NamesMatchModes) {
  EstimatorFixture f(1);
  EXPECT_EQ(f.Build(Mode::kHeuristic)->name(), "kde_heuristic");
  EXPECT_EQ(f.Build(Mode::kBatch)->name(), "kde_batch");
  EXPECT_EQ(f.Build(Mode::kAdaptive)->name(), "kde_adaptive");
  EXPECT_EQ(KdeModeName(Mode::kScv), "kde_scv");
}

TEST(KdeEstimator, EstimatesAreValidSelectivities) {
  EstimatorFixture f(2);
  auto estimator = f.Build(Mode::kHeuristic);
  for (const Query& q : f.test) {
    const double est = estimator->EstimateSelectivity(q.box);
    EXPECT_GE(est, 0.0);
    EXPECT_LE(est, 1.0);
  }
}

TEST(KdeEstimator, BatchBeatsHeuristicOnClusteredData) {
  EstimatorFixture f(3);
  auto heuristic = f.Build(Mode::kHeuristic);
  auto batch = f.Build(Mode::kBatch);
  const RunStats h = FeedbackDriver::RunPrecomputed(heuristic.get(), f.test);
  const RunStats b = FeedbackDriver::RunPrecomputed(batch.get(), f.test);
  EXPECT_LT(b.MeanAbsoluteError(), h.MeanAbsoluteError());
}

TEST(KdeEstimator, BatchReportsOptimization) {
  EstimatorFixture f(4);
  auto batch = f.Build(Mode::kBatch);
  EXPECT_LE(batch->batch_report().final_error,
            batch->batch_report().initial_error);
  EXPECT_GT(batch->batch_report().evaluations, 0u);
}

TEST(KdeEstimator, BatchRequiresTraining) {
  EstimatorFixture f(5);
  KdeConfig config;
  config.sample_size = 128;
  const auto result = KdeSelectivityEstimator::Create(
      Mode::kBatch, f.device.get(), f.table.get(), config, {});
  EXPECT_FALSE(result.ok());
}

TEST(KdeEstimator, AdaptiveImprovesWithFeedback) {
  EstimatorFixture f(6);
  auto adaptive = f.Build(Mode::kAdaptive);
  // Warm up on the training stream (estimate + feedback).
  FeedbackDriver::Train(adaptive.get(), f.training);
  FeedbackDriver::Train(adaptive.get(), f.training);
  const RunStats tuned = FeedbackDriver::RunPrecomputed(adaptive.get(),
                                                        f.test);
  auto heuristic = f.Build(Mode::kHeuristic);
  const RunStats frozen =
      FeedbackDriver::RunPrecomputed(heuristic.get(), f.test);
  EXPECT_LT(tuned.MeanAbsoluteError(), frozen.MeanAbsoluteError());
}

TEST(KdeEstimator, AdaptiveChangesBandwidthOverStream) {
  EstimatorFixture f(7);
  auto adaptive = f.Build(Mode::kAdaptive);
  const std::vector<double> initial = adaptive->bandwidth();
  FeedbackDriver::Train(adaptive.get(), f.training);
  EXPECT_NE(adaptive->bandwidth(), initial);
  for (double h : adaptive->bandwidth()) EXPECT_GT(h, 0.0);
}

TEST(KdeEstimator, NonAdaptiveModesIgnoreFeedback) {
  EstimatorFixture f(8);
  for (Mode mode : {Mode::kHeuristic, Mode::kBatch}) {
    auto estimator = f.Build(mode);
    const std::vector<double> before = estimator->bandwidth();
    FeedbackDriver::Train(estimator.get(), f.training);
    EXPECT_EQ(estimator->bandwidth(), before);
  }
}

TEST(KdeEstimator, ScvModeProducesDistinctValidBandwidth) {
  EstimatorFixture f(9);
  auto scv = f.Build(Mode::kScv);
  for (double h : scv->bandwidth()) {
    EXPECT_GT(h, 0.0);
    EXPECT_TRUE(std::isfinite(h));
  }
  const RunStats stats = FeedbackDriver::RunPrecomputed(scv.get(), f.test);
  EXPECT_LT(stats.MeanAbsoluteError(), 0.5);
}

TEST(KdeEstimator, OutOfOrderFeedbackIsHandled) {
  EstimatorFixture f(10);
  auto adaptive = f.Build(Mode::kAdaptive);
  // Feedback for a box never estimated: must not crash, must still adapt.
  for (const Query& q : f.training) {
    adaptive->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  for (double h : adaptive->bandwidth()) EXPECT_GT(h, 0.0);
}

// Feedback that is not a selectivity is dropped on the one feedback path,
// from the classic call (matching the open ticket or not) and from a
// streamed ticket alike: no RMSprop step, and estimates do not move.
TEST(KdeEstimator, InvalidFeedbackIsDropped) {
  EstimatorFixture f(13);
  auto adaptive = f.Build(Mode::kAdaptive);
  FeedbackDriver::Train(adaptive.get(), f.training);
  const Box& held_out = f.test[0].box;
  const double before = adaptive->EstimateSelectivity(held_out);
  const std::vector<double> bandwidth = adaptive->bandwidth();
  for (double bad : {std::nan(""), -5.0, 1.5, HUGE_VAL}) {
    adaptive->ObserveTrueSelectivity(held_out, bad);
    adaptive->ObserveTrueSelectivity(f.test[1].box, bad);
  }
  ASSERT_TRUE(adaptive->EnableStreaming(2).ok());
  const std::uint64_t ticket = adaptive->StreamBegin(f.test[2].box);
  (void)adaptive->StreamDeliver(ticket);
  adaptive->StreamFeedback(ticket, std::nan(""));
  EXPECT_EQ(adaptive->stream_in_flight(), 0u);
  adaptive->DisableStreaming();
  EXPECT_EQ(adaptive->bandwidth(), bandwidth);
  const double after = adaptive->EstimateSelectivity(held_out);
  EXPECT_EQ(std::memcmp(&before, &after, sizeof(double)), 0);
}

// Every feedback order the classic API accepts must fold into the model
// exactly as the canonical order does, where each feedback follows its
// own estimate: an estimate that never gets feedback, feedback for a box
// never estimated, two feedbacks for one box, and a Quiesce between an
// estimate and its feedback.
TEST(KdeEstimator, MixedFeedbackOrderMatchesCanonicalBitwise) {
  EstimatorFixture f(12);
  Device mixed_device(DeviceProfile::SimulatedGtx460());
  Device canonical_device(DeviceProfile::SimulatedGtx460());
  KdeConfig config;
  config.sample_size = 256;
  auto build = [&](Device* device) {
    return KdeSelectivityEstimator::Create(Mode::kAdaptive, device,
                                           f.table.get(), config)
        .MoveValueOrDie();
  };
  auto mixed = build(&mixed_device);
  auto canonical = build(&canonical_device);
  WorkloadGenerator generator(*f.table);
  Rng rng(41);
  const std::vector<Query> queries = generator.Generate(
      ParseWorkloadName("dt").ValueOrDie(), 250, &rng);

  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  std::size_t compared = 0;
  auto estimate_both = [&](const Box& box) {
    const double a = mixed->EstimateSelectivity(box);
    const double b = canonical->EstimateSelectivity(box);
    ++compared;
    return same_bits(a, b);
  };
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    switch (i % 5) {
      case 0:  // Estimated, never fed back.
        ASSERT_TRUE(estimate_both(q.box)) << "query " << i;
        break;
      case 1:  // Fed back, never estimated.
        mixed->ObserveTrueSelectivity(q.box, q.selectivity);
        (void)canonical->EstimateSelectivity(q.box);
        canonical->ObserveTrueSelectivity(q.box, q.selectivity);
        break;
      case 2:  // Two feedbacks for one estimate.
        ASSERT_TRUE(estimate_both(q.box)) << "query " << i;
        mixed->ObserveTrueSelectivity(q.box, q.selectivity);
        mixed->ObserveTrueSelectivity(q.box, q.selectivity);
        canonical->ObserveTrueSelectivity(q.box, q.selectivity);
        (void)canonical->EstimateSelectivity(q.box);
        canonical->ObserveTrueSelectivity(q.box, q.selectivity);
        break;
      case 3:  // Quiesce between the estimate and its feedback.
        ASSERT_TRUE(estimate_both(q.box)) << "query " << i;
        mixed->Quiesce();
        mixed->ObserveTrueSelectivity(q.box, q.selectivity);
        (void)canonical->EstimateSelectivity(q.box);
        canonical->ObserveTrueSelectivity(q.box, q.selectivity);
        break;
      default:  // In order.
        ASSERT_TRUE(estimate_both(q.box)) << "query " << i;
        mixed->ObserveTrueSelectivity(q.box, q.selectivity);
        canonical->ObserveTrueSelectivity(q.box, q.selectivity);
        break;
    }
    ASSERT_EQ(mixed->bandwidth(), canonical->bandwidth()) << "query " << i;
    ASSERT_EQ(mixed->karma_replacements(), canonical->karma_replacements())
        << "query " << i;
  }
  for (const Query& q : f.test) {
    ASSERT_TRUE(estimate_both(q.box));
  }
  EXPECT_EQ(compared, 200u + f.test.size());
  EXPECT_GT(mixed->karma_replacements(), 0u);
}

// One-at-a-time serving keeps the sample rebalancer running on a
// multi-device model; a streaming session freezes it, because a migration
// would permute rows under the enqueued slot chains.
TEST(KdeEstimator, RebalancesUnderClassicServingFrozenWhileStreaming) {
  const Table table =
      GenerateDataset("synthetic", 131072, 3, 5).MoveValueOrDie();
  WorkloadGenerator generator(table);
  Rng rng(17);
  const std::vector<Query> queries = generator.Generate(
      ParseWorkloadName("dt").ValueOrDie(), 40, &rng);
  KdeConfig config;
  config.sample_size = 131072;
  DeviceGroupOptions options;
  options.initial_weights = {0.95, 0.05};
  auto build = [&](DeviceGroup* group) {
    return KdeSelectivityEstimator::Create(Mode::kAdaptive, group, &table,
                                           config)
        .MoveValueOrDie();
  };

  auto classic_group = BuildDeviceGroup("gpu+gpu", options).MoveValueOrDie();
  auto classic = build(classic_group.get());
  const DeviceSample* classic_sample = classic->engine()->sample();
  ASSERT_EQ(classic_sample->migration_epoch(), 0u);
  for (const Query& q : queries) {
    (void)classic->EstimateSelectivity(q.box);
    classic->ObserveTrueSelectivity(q.box, q.selectivity);
  }
  EXPECT_GT(classic_sample->migration_epoch(), 0u);
  const std::vector<std::size_t> balanced = classic_sample->shard_sizes();
  EXPECT_LT(balanced[0], 3u * balanced[1]);

  auto streamed_group = BuildDeviceGroup("gpu+gpu", options).MoveValueOrDie();
  auto streamed = build(streamed_group.get());
  const DeviceSample* streamed_sample = streamed->engine()->sample();
  const std::vector<std::size_t> skewed = streamed_sample->shard_sizes();
  ASSERT_GT(skewed[0], 3u * skewed[1]);
  ASSERT_TRUE(streamed->EnableStreaming(2).ok());
  for (const Query& q : queries) {
    const std::uint64_t ticket = streamed->StreamBegin(q.box);
    (void)streamed->StreamDeliver(ticket);
    streamed->StreamFeedback(ticket, q.selectivity);
  }
  EXPECT_EQ(streamed_sample->migration_epoch(), 0u);
  EXPECT_EQ(streamed_sample->shard_sizes(), skewed);
  streamed->DisableStreaming();
}

TEST(KdeEstimator, KarmaReplacesStalePointsAfterBulkDelete) {
  // Build on clustered data, delete one cluster, query its region
  // repeatedly with truth 0: the sample points of that cluster must get
  // replaced.
  EstimatorFixture f(11);
  auto adaptive = f.Build(Mode::kAdaptive);
  // Identify cluster 0's bounding box from tagged rows.
  std::vector<double> lo(3, 1e300), hi(3, -1e300);
  for (std::size_t i = 0; i < f.table->num_rows(); ++i) {
    if (f.table->Tag(i) != 0) continue;
    for (std::size_t j = 0; j < 3; ++j) {
      lo[j] = std::min(lo[j], f.table->At(i, j));
      hi[j] = std::max(hi[j], f.table->At(i, j));
    }
  }
  const Box cluster_box(lo, hi);
  f.table->DeleteByTag(0);
  adaptive->OnDelete(0, f.table->num_rows());
  for (int i = 0; i < 30; ++i) {
    (void)adaptive->EstimateSelectivity(cluster_box);
    adaptive->ObserveTrueSelectivity(cluster_box, 0.0);
  }
  EXPECT_GT(adaptive->karma_replacements(), 0u);
}

TEST(KdeEstimator, ReservoirSamplesInsertStream) {
  EstimatorFixture f(12);
  auto adaptive = f.Build(Mode::kAdaptive);
  // Insert far-away rows; eventually some enter the sample, shifting
  // estimates toward the new region.
  const Box new_region({5.0, 5.0, 5.0}, {7.0, 7.0, 7.0});
  const double before = adaptive->EstimateSelectivity(new_region);
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    std::vector<double> row = {rng.Uniform(5.0, 7.0), rng.Uniform(5.0, 7.0),
                               rng.Uniform(5.0, 7.0)};
    f.table->Insert(row);
    adaptive->OnInsert(row, f.table->num_rows());
  }
  const double after = adaptive->EstimateSelectivity(new_region);
  EXPECT_GT(after, before + 0.01);
}

TEST(KdeEstimator, ModelBytesTracksBudget) {
  EstimatorFixture f(14);
  KdeConfig config;
  config.sample_size = 1024;
  auto estimator =
      KdeSelectivityEstimator::Create(Mode::kHeuristic, f.device.get(),
                                      f.table.get(), config)
          .MoveValueOrDie();
  // Sample payload dominates: 1024 rows x 3 dims x 4 bytes.
  EXPECT_GE(estimator->ModelBytes(), 1024u * 3u * 4u);
  EXPECT_LE(estimator->ModelBytes(), 2u * 1024u * 3u * 4u + 16384u);
}

TEST(KdeEstimator, SampleSizeClampedToTable) {
  Table tiny(2);
  for (int i = 0; i < 10; ++i) {
    tiny.Insert(std::vector<double>{i * 1.0, i * 2.0});
  }
  Device device(DeviceProfile::OpenClCpu());
  KdeConfig config;
  config.sample_size = 1000;
  auto estimator = KdeSelectivityEstimator::Create(Mode::kHeuristic, &device,
                                                   &tiny, config)
                       .MoveValueOrDie();
  EXPECT_EQ(estimator->engine()->sample_size(), 10u);
}

TEST(KdeEstimator, RejectsInvalidConstruction) {
  EstimatorFixture f(15);
  KdeConfig config;
  EXPECT_FALSE(KdeSelectivityEstimator::Create(Mode::kHeuristic,
                                               static_cast<Device*>(nullptr),
                                               f.table.get(), config)
                   .ok());
  EXPECT_FALSE(KdeSelectivityEstimator::Create(Mode::kHeuristic,
                                               f.device.get(), nullptr,
                                               config)
                   .ok());
  Table empty(3);
  EXPECT_FALSE(KdeSelectivityEstimator::Create(Mode::kHeuristic,
                                               f.device.get(), &empty, config)
                   .ok());
  config.sample_size = 0;
  EXPECT_FALSE(KdeSelectivityEstimator::Create(Mode::kHeuristic,
                                               f.device.get(), f.table.get(),
                                               config)
                   .ok());
}

TEST(KdeEstimator, EpanechnikovKernelEndToEnd) {
  EstimatorFixture f(16);
  KdeConfig config;
  config.kernel = KernelType::kEpanechnikov;
  config.sample_size = 256;
  auto estimator =
      KdeSelectivityEstimator::Create(Mode::kAdaptive, f.device.get(),
                                      f.table.get(), config)
          .MoveValueOrDie();
  FeedbackDriver::Train(estimator.get(), f.training);
  const RunStats stats = FeedbackDriver::RunPrecomputed(estimator.get(),
                                                        f.test);
  EXPECT_LT(stats.MeanAbsoluteError(), 0.5);
}

}  // namespace
}  // namespace fkde
