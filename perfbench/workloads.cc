#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "data/generators.h"
#include "kde/batch.h"
#include "kde/kernel_backend.h"
#include "kde/snapshot.h"
#include "parallel/thread_pool.h"
#include "record.h"
#include "runtime/catalog.h"
#include "runtime/streaming_executor.h"
#include "runtime/topology.h"
#include "stats.h"
#include "trace.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using fkde::KdeSelectivityEstimator;
using Mode = fkde::KdeSelectivityEstimator::Mode;

// Sizes were chosen on a 4-core AVX2 host so that each workload's run is
// dominated by the layer it is meant to stress (see README.md).
const WorkloadShape kWorkloads[] = {
    {.name = "serve_hot",
     .device = "cpu-simd",
     .path = ServingPath::kCatalog,
     .mode = Mode::kAdaptive,
     .models = 4,
     .queries_per_model = 1024,
     .round = 4,
     .quality_cycles = 12000},
    {.name = "serve_churn",
     .device = "cpu-simd",
     .path = ServingPath::kCatalog,
     .mode = Mode::kAdaptive,
     .models = 16,
     .resident_models = 4,
     .zipf = true,
     .queries_per_model = 256,
     .quality_cycles = 6000},
    {.name = "reoptimize",
     .device = "cpu-simd",
     .path = ServingPath::kDirect,
     .mode = Mode::kPeriodic,
     .feedback_window = 64,
     .reoptimize_every = 50,
     .reopt_iterations = 10,
     .queries_per_model = 1024,
     .round = 50,
     .quality_cycles = 300},
    {.name = "stream_wide",
     .device = "cpu-simd",
     .path = ServingPath::kStream,
     .mode = Mode::kAdaptive,
     .dims = 5,
     .table_rows = 131072,
     .sample_size = 65536,
     .window = 4,
     .pool_threads = 1,
     .queries_per_model = 512,
     .quality_cycles = 800},
};

/// Length of the generated model-access sequence; runs wrap around it.
constexpr std::size_t kSequenceLength = 1 << 16;
/// Queries the streaming executor runs for the check and the trace.
constexpr std::size_t kExecutorPrefix = 256;
/// Modeled database execution window per streamed query (as traffic_bench).
constexpr double kExecutionSeconds = 100e-6;
/// End-to-end statistics are taken over this many chunks of a run.
constexpr std::size_t kChunks = 40;
/// Repetitions of the one-off layer probes (snapshot, batch loss).
constexpr int kProbeRepetitions = 5;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

const char* OtherDevice(const char* device) {
  return std::strcmp(device, "cpu") == 0 ? "cpu-simd" : "cpu";
}

/// The thread pool the workload's device groups run their kernels on:
/// the library's global pool (one worker per core) when `threads` is 0,
/// else a pool of `threads` workers shared by every group of the process.
/// A process runs one workload, so it asks for one size only.
fkde::ThreadPool* KernelPool(std::size_t threads) {
  if (threads == 0) return &fkde::ThreadPool::Global();
  // Never destroyed, like the global pool.
  static fkde::ThreadPool* pool = new fkde::ThreadPool(threads);
  return pool;
}

/// As fkde::BuildDeviceGroup, on the pool of `pool_threads` workers.
std::unique_ptr<fkde::DeviceGroup> MakeGroup(const char* device,
                                             std::size_t pool_threads) {
  if (std::strstr(device, "cpu-simd") != nullptr) {
    fkde::kb::CalibrateKernelBackends();
  }
  std::vector<fkde::DeviceProfile> profiles =
      fkde::ParseDeviceTopology(device).MoveValueOrDie();
  return std::make_unique<fkde::DeviceGroup>(
      profiles, fkde::DeviceGroupOptions{}, KernelPool(pool_threads));
}

/// Tables, queries, the access sequence and the served models of one
/// set-up. Declaration order matters: models are destroyed before the
/// group they live on and the tables they read.
struct Fixture {
  const WorkloadShape* shape = nullptr;
  std::vector<fkde::Table> tables;
  std::vector<std::vector<fkde::Query>> queries;
  /// (model, query) of every call, in order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sequence;
  std::vector<fkde::ModelKey> keys;
  std::vector<fkde::KdeConfig> configs;
  std::unique_ptr<fkde::DeviceGroup> group;
  std::unique_ptr<fkde::ModelCatalog> catalog;       // catalog path
  std::unique_ptr<KdeSelectivityEstimator> model;    // direct, stream paths
  double table_s = 0.0;
  double queries_s = 0.0;
  double build_s = 0.0;

  std::uint32_t ModelAt(std::size_t i) const {
    return sequence[i % sequence.size()].first;
  }
  const fkde::Query& QueryAt(std::size_t i) const {
    const auto [m, q] = sequence[i % sequence.size()];
    return queries[m][q];
  }
  std::unique_ptr<KdeSelectivityEstimator> Build(
      std::size_t m, fkde::DeviceGroup* on, Mode mode) const {
    return KdeSelectivityEstimator::Create(mode, on, &tables[m], configs[m])
        .MoveValueOrDie();
  }
  std::unique_ptr<KdeSelectivityEstimator> Build(
      std::size_t m, fkde::DeviceGroup* on) const {
    return Build(m, on, shape->mode);
  }
};

std::vector<std::pair<std::uint32_t, std::uint32_t>> MakeSequence(
    const WorkloadShape& shape, std::uint64_t seed) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sequence;
  sequence.reserve(kSequenceLength);
  const std::size_t models = shape.models;
  const std::size_t pool = shape.queries_per_model;
  if (!shape.zipf) {
    for (std::size_t i = 0; i < kSequenceLength; ++i) {
      sequence.emplace_back(i % models, (i / models) % pool);
    }
    return sequence;
  }
  // Zipf(1.0): model m has popularity rank m + 1. The ranking is fixed so
  // that the seed changes which calls are made, not which of the
  // (differently hard) tables is popular.
  fkde::Rng rng(seed * 7919 + 101);
  std::vector<double> cdf(models);
  double total = 0.0;
  for (std::size_t r = 0; r < models; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  std::vector<std::size_t> next_query(models, 0);
  for (std::size_t i = 0; i < kSequenceLength; ++i) {
    const double u = rng.Uniform();
    const std::uint32_t m = static_cast<std::uint32_t>(std::min<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        models - 1));
    sequence.emplace_back(m, next_query[m]++ % pool);
  }
  return sequence;
}

std::unique_ptr<Fixture> SetUp(const WorkloadShape& shape,
                               std::uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  f->shape = &shape;
  Clock::time_point t = Clock::now();
  f->tables.reserve(shape.models);  // Models keep pointers into it.
  // The tables, and the models' samples below, are the benchmark's fixed
  // database; the seed draws the queries and the access order. (Table-
  // and sample-dependent differences in estimate error and kernel cost
  // would otherwise swamp the comparison between runs.)
  for (std::size_t m = 0; m < shape.models; ++m) {
    f->tables.push_back(fkde::GenerateDataset("synthetic", shape.table_rows,
                                              shape.dims, 7919 + m)
                            .MoveValueOrDie());
  }
  f->table_s = Seconds(Clock::now() - t);

  t = Clock::now();
  const fkde::WorkloadSpec dt = fkde::ParseWorkloadName("dt").ValueOrDie();
  for (std::size_t m = 0; m < shape.models; ++m) {
    fkde::WorkloadGenerator generator(f->tables[m]);
    fkde::Rng rng(seed * 7919 + m + 17);
    f->queries.push_back(
        generator.Generate(dt, shape.queries_per_model, &rng));
  }
  f->sequence = MakeSequence(shape, seed);
  f->queries_s = Seconds(Clock::now() - t);

  t = Clock::now();
  for (std::size_t m = 0; m < shape.models; ++m) {
    fkde::KdeConfig config;
    config.sample_size = shape.sample_size;
    config.seed = 7919 + m + 29;  // Fixed like the tables (see above).
    config.feedback_window = shape.feedback_window;
    config.reoptimize_every = shape.reoptimize_every;
    if (shape.reopt_iterations > 0) {
      config.batch.local.max_iterations = shape.reopt_iterations;
      config.batch.local.gradient_tolerance = 0.0;
      config.batch.local.f_tolerance = 0.0;
    }
    f->configs.push_back(config);
    fkde::ModelKey key;
    key.table = "t" + std::to_string(m);
    for (std::size_t c = 0; c < shape.dims; ++c) {
      key.columns.push_back("c" + std::to_string(c));
    }
    f->keys.push_back(std::move(key));
  }
  f->group = MakeGroup(shape.device, shape.pool_threads);
  if (shape.path == ServingPath::kCatalog) {
    fkde::CatalogOptions options;
    if (shape.resident_models > 0) {
      // Size the budget from one model's footprint, built on a throwaway
      // group so the serving group's scratch pool stays untouched.
      std::unique_ptr<fkde::DeviceGroup> sizing =
          MakeGroup(shape.device, shape.pool_threads);
      const std::size_t bytes = f->Build(0, sizing.get())->ModelBytes();
      options.device_budget_bytes =
          bytes * shape.resident_models + bytes / 2;
    }
    f->catalog =
        std::make_unique<fkde::ModelCatalog>(f->group.get(), options);
    for (std::size_t m = 0; m < shape.models; ++m) {
      fkde::ModelSpec spec;
      spec.mode = shape.mode;
      spec.config = f->configs[m];
      spec.table = &f->tables[m];
      f->catalog->Register(f->keys[m], std::move(spec))
          .AbortIfError("register");
    }
    // Models build lazily on first use; build them here so set-up, not
    // the first measured calls, pays for it.
    for (const fkde::ModelKey& key : f->keys) {
      f->catalog->Open(key).MoveValueOrDie();
    }
  } else {
    f->model = f->Build(0, f->group.get());
  }
  f->build_s = Seconds(Clock::now() - t);
  return f;
}

/// Counters the library exposes, read around a measured run.
struct Counters {
  Clock::time_point wall;
  fkde::TransferLedger ledger;
  fkde::CommandQueueStats queue;
  double modeled_s = 0.0;
  double stall_s = 0.0;
  fkde::CatalogStats catalog;
};

Counters ReadCounters(const Fixture& f) {
  Counters c;
  c.ledger = f.group->AggregateLedger();
  c.queue = f.group->AggregateQueueStats();
  c.modeled_s = f.group->MaxModeledSeconds();
  c.stall_s = f.group->TotalHostStallSeconds();
  if (f.catalog) c.catalog = f.catalog->Stats();
  c.wall = Clock::now();
  return c;
}

/// Everything one measured (or traced) serving pass observed. Timings
/// and counters cover the measured window, which follows a warm-up.
struct Served {
  std::vector<double> estimate_us;
  std::vector<double> feedback_us;
  std::vector<double> cycle_end_s;  ///< When each measured cycle ended.
  std::vector<double> estimates;  ///< Every call, warm-up included.
  std::vector<double> abs_err;    ///< Every call, warm-up included.
  std::size_t cycles = 0;         ///< Every call, warm-up included.
  std::size_t warmup_cycles = 0;
  double wall_s = 0.0;            ///< Measured window.
  std::size_t ops = 0;
  std::size_t failed_ops = 0;
  std::vector<std::string> failures;
  Counters before;
  Counters after;
  // Traced pass only.
  std::vector<double> fault_call_us;  ///< Estimates that faulted a model.
  std::vector<double> reopt_call_us;  ///< Feedbacks that re-optimized.
  std::vector<double> stream_estimate_us;  ///< StreamBegin + StreamDeliver.

  std::size_t measured_cycles() const { return cycles - warmup_cycles; }
};

/// Runs `fn` under a span when tracing; returns its wall time in µs.
template <typename Fn>
double Timed(Tracer* tracer, const char* name, std::uint64_t query,
             Fn&& fn) {
  std::optional<Tracer::Scope> span;
  if (tracer != nullptr) span.emplace(tracer, name, query);
  const Clock::time_point t0 = Clock::now();
  fn();
  return Micros(Clock::now() - t0);
}

Clock::time_point Deadline(Clock::time_point from, double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

/// A run's clock: a warm-up of a tenth of the run, then a measured window
/// of `seconds`. The window opens, and the run ends, only on a multiple
/// of the workload's round, and the run lasts at least its quality prefix.
class RunWindow {
 public:
  RunWindow(const Fixture& f, double seconds, Served* served)
      : f_(f),
        seconds_(seconds),
        served_(served),
        warm_until_(Deadline(Clock::now(), seconds / 10)) {}

  /// Called before call `i` starts; false once the run is over.
  bool Next(std::size_t i) {
    const bool boundary = i % f_.shape->round == 0;
    if (!open_ && boundary && Clock::now() >= warm_until_) {
      open_ = true;
      served_->warmup_cycles = i;
      served_->before = ReadCounters(f_);
      deadline_ = Deadline(served_->before.wall, seconds_);
    }
    if (!open_ || i < f_.shape->quality_cycles || !boundary) return true;
    return Clock::now() < deadline_;
  }
  bool measuring() const { return open_; }
  /// Seconds since the measured window opened.
  double ElapsedSeconds() const {
    return Seconds(Clock::now() - served_->before.wall);
  }

  void Close(std::size_t cycles) {
    served_->after = ReadCounters(f_);
    served_->cycles = cycles;
    served_->wall_s = Seconds(served_->after.wall - served_->before.wall);
  }

 private:
  const Fixture& f_;
  double seconds_;
  Served* served_;
  Clock::time_point warm_until_;
  Clock::time_point deadline_;
  bool open_ = false;
};

void RecordEstimate(Served* s, std::size_t i, double estimate, double truth) {
  s->estimates.push_back(estimate);
  s->abs_err.push_back(std::abs(estimate - truth));
  ++s->ops;
  if (!std::isfinite(estimate) || estimate < 0.0 || estimate > 1.0) {
    ++s->failed_ops;
    if (s->failures.size() < 5) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "estimate %zu out of [0,1]: %.17g", i,
                    estimate);
      s->failures.emplace_back(buf);
    }
  }
}

/// Catalog and direct paths: estimate then feedback, one call at a time.
Served ServeCalls(Fixture& f, double seconds, Tracer* tracer) {
  const bool catalog = f.catalog != nullptr;
  Served s;
  RunWindow window(f, seconds, &s);
  std::size_t i = 0;
  for (; window.Next(i); ++i) {
    const std::uint32_t m = f.ModelAt(i);
    const fkde::Query& query = f.QueryAt(i);
    std::optional<Tracer::Scope> root;
    std::uint64_t faults0 = 0;
    std::size_t reopts0 = 0;
    if (tracer != nullptr) {
      root.emplace(tracer, "query", i);
      if (catalog) faults0 = f.catalog->Stats().faults;
      if (!catalog) reopts0 = f.model->reoptimizations();
    }
    double estimate = std::nan("");
    const double est_us = Timed(
        tracer, catalog ? "catalog.estimate" : "estimator.estimate", i, [&] {
          if (catalog) {
            fkde::Result<double> r = f.catalog->Estimate(f.keys[m], query.box);
            if (r.ok()) estimate = r.ValueOrDie();
          } else {
            estimate = f.model->EstimateSelectivity(query.box);
          }
        });
    bool feedback_ok = true;
    const double fb_us = Timed(
        tracer, catalog ? "catalog.feedback" : "estimator.feedback", i, [&] {
          if (catalog) {
            feedback_ok =
                f.catalog->Feedback(f.keys[m], query.box, query.selectivity)
                    .ok();
          } else {
            f.model->ObserveTrueSelectivity(query.box, query.selectivity);
          }
        });
    if (window.measuring()) {
      s.estimate_us.push_back(est_us);
      s.feedback_us.push_back(fb_us);
      s.cycle_end_s.push_back(window.ElapsedSeconds());
    }
    RecordEstimate(&s, i, estimate, query.selectivity);
    ++s.ops;
    if (!feedback_ok) {
      ++s.failed_ops;
      if (s.failures.size() < 5) {
        s.failures.push_back("feedback failed at call " + std::to_string(i));
      }
    }
    if (tracer != nullptr) {
      if (catalog && f.catalog->Stats().faults != faults0) {
        s.fault_call_us.push_back(est_us);
      }
      if (!catalog && f.model->reoptimizations() != reopts0) {
        s.reopt_call_us.push_back(fb_us);
      }
    }
  }
  window.Close(i);
  return s;
}

/// Stream path: the StreamingExecutor's admit/retire schedule (fill the
/// window, then retire the oldest and admit the next), timed per query.
/// A query's estimate latency runs from its admission to its delivery.
Served ServeStream(Fixture& f, double seconds, Tracer* tracer) {
  const WorkloadShape& shape = *f.shape;
  KdeSelectivityEstimator* model = f.model.get();
  Served s;
  model->EnableStreaming(shape.window).AbortIfError("enable streaming");
  RunWindow window(f, seconds, &s);
  struct InFlight {
    std::uint64_t ticket;
    Clock::time_point admitted;
    double begin_us;
  };
  std::deque<InFlight> in_flight;
  std::size_t admitted = 0;
  std::size_t retired = 0;
  bool admitting = true;
  while (true) {
    if (admitting && admitted - retired < shape.window) {
      if (!window.Next(admitted)) {
        admitting = false;
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      std::uint64_t ticket = 0;
      const double begin_us = Timed(tracer, "stream.begin", admitted, [&] {
        ticket = model->StreamBegin(f.QueryAt(admitted).box);
      });
      in_flight.push_back({ticket, t0, begin_us});
      ++admitted;
      continue;
    }
    if (retired == admitted) break;
    const InFlight oldest = in_flight.front();
    in_flight.pop_front();
    const fkde::Query& query = f.QueryAt(retired);
    double estimate = 0.0;
    const double deliver_us = Timed(tracer, "stream.deliver", retired, [&] {
      estimate = model->StreamDeliver(oldest.ticket);
    });
    const double delivered_us = Micros(Clock::now() - oldest.admitted);
    const double fb_us = Timed(tracer, "stream.feedback", retired, [&] {
      model->StreamFeedback(oldest.ticket, query.selectivity);
    });
    if (window.measuring() && retired >= s.warmup_cycles) {
      s.estimate_us.push_back(delivered_us);
      s.feedback_us.push_back(fb_us);
      s.cycle_end_s.push_back(window.ElapsedSeconds());
    }
    s.stream_estimate_us.push_back(oldest.begin_us + deliver_us);
    RecordEstimate(&s, retired, estimate, query.selectivity);
    ++s.ops;
    ++retired;
  }
  model->DisableStreaming();
  window.Close(retired);
  return s;
}

Served Serve(Fixture& f, double seconds, Tracer* tracer) {
  return f.shape->path == ServingPath::kStream ? ServeStream(f, seconds, tracer)
                                               : ServeCalls(f, seconds, tracer);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Streams the first `n` queries of model 0 through a StreamingExecutor
/// on a fresh group and a freshly built model.
fkde::StreamingReport RunExecutor(const Fixture& f, std::size_t n,
                                  bool pipeline) {
  std::unique_ptr<fkde::DeviceGroup> group =
      MakeGroup(f.shape->device, f.shape->pool_threads);
  std::unique_ptr<KdeSelectivityEstimator> model = f.Build(0, group.get());
  std::vector<fkde::StreamedQuery> queries;
  for (std::size_t i = 0; queries.size() < n; ++i) {
    if (f.ModelAt(i) != 0) continue;
    const fkde::Query& q = f.QueryAt(i);
    queries.push_back({q.box, q.selectivity});
  }
  fkde::StreamingOptions options;
  options.window = std::max<std::size_t>(f.shape->window, 4);
  options.pipeline = pipeline;
  options.execution_seconds = kExecutionSeconds;
  fkde::StreamingExecutor executor(group.get(), options);
  return executor.Run(model.get(), queries).MoveValueOrDie();
}

/// Compares `n` estimates bit for bit; counts each comparison.
void CompareBits(const char* check, const std::vector<double>& expected,
                 const std::vector<double>& got, std::size_t n,
                 RunResult* result) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ++result->attempted;
    const bool ok = i < expected.size() && i < got.size() &&
                    SameBits(expected[i], got[i]);
    if (!ok) ++mismatches;
  }
  result->failed += mismatches;
  if (mismatches > 0) {
    result->check_failures.push_back(std::string(check) + ": " +
                                     std::to_string(mismatches) + " of " +
                                     std::to_string(n) + " estimates differ");
  }
}

/// The run's output checks beyond the per-estimate range check.
void CheckOutputs(const Fixture& f, const Served& served, RunResult* result) {
  const WorkloadShape& shape = *f.shape;
  if (shape.path == ServingPath::kCatalog && shape.resident_models > 0) {
    // Eviction must be invisible: the same calls served with no budget
    // return the same bits.
    std::unique_ptr<fkde::DeviceGroup> group =
        MakeGroup(shape.device, shape.pool_threads);
    fkde::ModelCatalog unbounded(group.get());
    for (std::size_t m = 0; m < shape.models; ++m) {
      fkde::ModelSpec spec;
      spec.mode = shape.mode;
      spec.config = f.configs[m];
      spec.table = &f.tables[m];
      unbounded.Register(f.keys[m], std::move(spec)).AbortIfError("register");
    }
    std::vector<double> expected;
    expected.reserve(served.cycles);
    for (std::size_t i = 0; i < served.cycles; ++i) {
      const fkde::ModelKey& key = f.keys[f.ModelAt(i)];
      const fkde::Query& query = f.QueryAt(i);
      fkde::Result<double> r = unbounded.Estimate(key, query.box);
      expected.push_back(r.ok() ? r.ValueOrDie() : std::nan(""));
      unbounded.Feedback(key, query.box, query.selectivity)
          .AbortIfError("feedback");
    }
    CompareBits("serve_churn vs no budget", expected, served.estimates,
                served.cycles, result);
  }
  if (shape.path == ServingPath::kStream) {
    // The pipelined executor must match its drained replay, and the
    // measured loop (same schedule, same model seed) must match both.
    const std::size_t n = std::min(kExecutorPrefix, served.cycles);
    const fkde::StreamingReport pipelined = RunExecutor(f, n, true);
    const fkde::StreamingReport drained = RunExecutor(f, n, false);
    CompareBits("stream pipelined vs drained", drained.estimates,
                pipelined.estimates, n, result);
    CompareBits("stream measured vs executor", pipelined.estimates,
                served.estimates, n, result);
  }
}

/// The raw kernel loop at a workload's shape: the first `rows` rows of
/// the model's table in the engine's layouts, the model's bandwidth and
/// the served query's bounds.
struct KernelProbe {
  std::vector<float> aos;
  std::vector<float> soa;
  std::vector<double> h;
  std::vector<double> bounds;
  std::vector<double> contrib;
  std::vector<double> partials;
  fkde::kb::ShardKernelView view;

  KernelProbe(const fkde::Table& table, std::size_t rows,
              const fkde::KdeEngine& engine)
      : aos(rows * engine.dims()),
        soa(rows * engine.dims()),
        h(engine.bandwidth()),
        bounds(2 * engine.dims()),
        contrib(rows),
        partials(rows * engine.dims()) {
    const std::size_t d = engine.dims();
    for (std::size_t i = 0; i < rows; ++i) {
      const std::span<const double> row = table.Row(i % table.num_rows());
      for (std::size_t j = 0; j < d; ++j) {
        aos[i * d + j] = static_cast<float>(row[j]);
        soa[j * rows + i] = aos[i * d + j];
      }
    }
    view.backend = engine.shard_backend(0);
    view.precision = engine.shard_precision(0);
    view.kernel = engine.kernel();
    view.d = d;
    view.aos = aos.data();
    view.soa = soa.data();
    view.soa_stride = rows;
    view.h = h.data();
  }
  void SetBounds(const fkde::Box& box) {
    const std::size_t d = h.size();
    for (std::size_t j = 0; j < d; ++j) {
      bounds[j] = box.lower(j);
      bounds[d + j] = box.upper(j);
    }
  }
  /// The estimate pass's loop.
  void Contribution() {
    fkde::kb::FusedContribution(view, bounds.data(), contrib.data(), 0,
                                contrib.size());
  }
  /// The gradient pass's loop (feedback path).
  void Gradient() {
    fkde::kb::FusedContributionGrad(view, bounds.data(), contrib.data(),
                                    partials.data(), contrib.size(), 0,
                                    contrib.size());
  }
};

/// Replays the traced calls one layer lower, on copies: same specs and
/// seeds, their own device groups, so the measured models stay untouched.
/// Each layer is replayed in its own pass so the passes do not share
/// caches: estimator replicas on the workload's device (catalog path),
/// the same models on the other cpu device, then the engine, kernel,
/// queue and pool probes.
struct Replay {
  std::unique_ptr<fkde::DeviceGroup> group;        // replicas' device
  std::unique_ptr<fkde::DeviceGroup> alt_group;    // the other cpu device
  std::unique_ptr<fkde::DeviceGroup> probe_group;  // engine probe
  std::vector<std::unique_ptr<KdeSelectivityEstimator>> replicas;
  std::vector<std::unique_ptr<KdeSelectivityEstimator>> alts;
  /// Heuristic-mode model of model 0's shape: its engine is called
  /// directly, at the workload's shapes.
  std::unique_ptr<KdeSelectivityEstimator> probe;
  std::unique_ptr<KernelProbe> kernel;
  std::size_t replica_cycles = 0;
  std::size_t alt_cycles = 0;
  double alt_wall_s = 0.0;
  double alt_modeled_s = 0.0;
};

/// Replays the first calls of the traced pass, each pass for at most
/// `seconds`. `reference` is the model whose adapted bandwidth the engine
/// and kernel probes use.
std::unique_ptr<Replay> RunReplay(const Fixture& f,
                                  KdeSelectivityEstimator* traced_model,
                                  std::size_t traced_cycles, double seconds,
                                  Tracer* tracer) {
  const WorkloadShape& shape = *f.shape;
  auto r = std::make_unique<Replay>();
  r->alt_group = MakeGroup(OtherDevice(shape.device), shape.pool_threads);
  r->probe_group = MakeGroup(shape.device, shape.pool_threads);

  if (shape.path == ServingPath::kCatalog) {
    r->group = MakeGroup(shape.device, shape.pool_threads);
    for (std::size_t m = 0; m < shape.models; ++m) {
      r->replicas.push_back(f.Build(m, r->group.get()));
    }
    std::size_t i = 0;
    for (const auto deadline = Deadline(Clock::now(), seconds);
         i < traced_cycles && Clock::now() < deadline; ++i) {
      KdeSelectivityEstimator* replica = r->replicas[f.ModelAt(i)].get();
      const fkde::Query& query = f.QueryAt(i);
      Tracer::Scope root(tracer, "replay.estimator", i);
      Timed(tracer, "estimator.estimate", i,
            [&] { replica->EstimateSelectivity(query.box); });
      Timed(tracer, "estimator.feedback", i, [&] {
        replica->ObserveTrueSelectivity(query.box, query.selectivity);
      });
    }
    r->replica_cycles = i;
  }

  for (std::size_t m = 0; m < shape.models; ++m) {
    r->alts.push_back(f.Build(m, r->alt_group.get()));
  }
  const double alt_modeled0 = r->alt_group->MaxModeledSeconds();
  std::size_t i = 0;
  for (const auto deadline = Deadline(Clock::now(), seconds);
       i < traced_cycles && Clock::now() < deadline; ++i) {
    KdeSelectivityEstimator* alt = r->alts[f.ModelAt(i)].get();
    const fkde::Query& query = f.QueryAt(i);
    Tracer::Scope root(tracer, "replay.alt", i);
    r->alt_wall_s += 1e-6 * Timed(tracer, "alt.estimate", i, [&] {
      alt->EstimateSelectivity(query.box);
    });
    r->alt_wall_s += 1e-6 * Timed(tracer, "alt.feedback", i, [&] {
      alt->ObserveTrueSelectivity(query.box, query.selectivity);
    });
  }
  r->alt_cycles = i;
  r->alt_modeled_s = r->alt_group->MaxModeledSeconds() - alt_modeled0;

  KdeSelectivityEstimator* reference =
      r->replicas.empty() ? traced_model : r->replicas[0].get();
  r->probe = f.Build(0, r->probe_group.get(), Mode::kHeuristic);
  fkde::KdeEngine* engine = r->probe->engine();
  engine->SetBandwidth(reference->bandwidth()).AbortIfError("bandwidth");
  r->kernel = std::make_unique<KernelProbe>(f.tables[0], shape.sample_size,
                                            *engine);
  fkde::CommandQueue* queue = r->probe_group->device(0)->default_queue();
  fkde::ThreadPool& pool = *KernelPool(shape.pool_threads);
  i = 0;
  for (const auto deadline = Deadline(Clock::now(), seconds);
       i < traced_cycles && Clock::now() < deadline; ++i) {
    const fkde::Box& box = f.QueryAt(i).box;
    Tracer::Scope root(tracer, "replay.lower", i);
    Timed(tracer, "engine.estimate", i, [&] { engine->Estimate(box); });
    r->kernel->SetBounds(box);
    Timed(tracer, "kernel.contribution", i, [&] { r->kernel->Contribution(); });
    Timed(tracer, "kernel.gradient", i, [&] { r->kernel->Gradient(); });
    Timed(tracer, "queue.roundtrip", i, [&] {
      queue->EnqueueLaunch("perfbench_roundtrip", 1, 1.0,
                           [](std::size_t, std::size_t) {})
          .Wait();
    });
    Timed(tracer, "pool.fork_join", i, [&] {
      pool.ParallelFor(shape.sample_size, 1024,
                       [](std::size_t, std::size_t) {});
    });
  }
  return r;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void Add(RunResult* result, const std::string& name, double value,
         const std::string& unit, std::size_t samples = 1,
         const std::string& note = "") {
  result->metrics.push_back(Metric{name, value, unit, samples, note});
}

std::string PercentileNote(const Summary& s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "highest resolved percentile p%g",
                s.resolved_percentile);
  return buf;
}

/// Splits `cycles` measured cycles into up to kChunks contiguous
/// [begin, end) ranges of whole rounds.
std::vector<std::pair<std::size_t, std::size_t>> Chunks(std::size_t cycles,
                                                        std::size_t round) {
  const std::size_t rounds = cycles / round;
  const std::size_t n = std::min(kChunks, rounds);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::size_t begin = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t take = rounds / n + (c < rounds % n ? 1 : 0);
    chunks.emplace_back(begin, begin + take * round);
    begin += take * round;
  }
  return chunks;
}

/// Mean |estimate - truth| over the workload's fixed first calls.
double AbsErrMean(const Fixture& f, const Served& s, std::size_t* n) {
  *n = std::min(f.shape->quality_cycles, s.abs_err.size());
  return Ratio(std::accumulate(s.abs_err.begin(), s.abs_err.begin() + *n, 0.0),
               *n);
}

void AddEndToEnd(const Fixture& f, const Served& s, double setup_s,
                 double peak_rss_mb, RunResult* result) {
  Add(result, "setup_s", setup_s, "s", 1,
      "tables, queries, access sequence and model builds");
  // Each statistic is taken over short chunks of the measured window, at
  // the faster quartile: on a shared host, neighbours on the same physical
  // cores slow whole stretches of a run by a fifth or more, and how much of
  // a run they cover changes from run to run. The fast quartile of chunks
  // is the program's own speed as long as a quarter of the run is left
  // alone; a median would follow the share of the run that is not.
  const std::size_t cycles = s.cycle_end_s.size();
  std::vector<double> qps, est_p50, fb_mean;
  Summary est;
  for (const auto& [b, e] : Chunks(cycles, f.shape->round)) {
    const double start = b > 0 ? s.cycle_end_s[b - 1] : 0.0;
    qps.push_back(Ratio(e - b, s.cycle_end_s[e - 1] - start));
    est = Summarize({s.estimate_us.begin() + b, s.estimate_us.begin() + e});
    est_p50.push_back(est.p50);
    fb_mean.push_back(Summarize({s.feedback_us.begin() + b,
                                 s.feedback_us.begin() + e})
                          .mean);
  }
  const std::string of =
      "fast quartile of " + std::to_string(qps.size()) + " chunks; ";
  Add(result, "throughput_qps", Percentile(qps, 75.0), "1/s", cycles,
      of + "estimate+feedback cycles per wall second");
  Add(result, "estimate_p50_us", Percentile(est_p50, 25.0), "us", cycles,
      of + "per chunk, " + PercentileNote(est));
  Add(result, "feedback_mean_us", Percentile(fb_mean, 25.0), "us", cycles,
      of + "per chunk, the mean, re-optimizations included");
  Add(result, "peak_rss_mb", peak_rss_mb, "MiB");
}

/// Layer each span belongs to, for the self-time table.
const char* LayerOf(const std::string& span) {
  if (span == "query" || span.rfind("replay", 0) == 0) return "client";
  if (span.rfind("catalog.", 0) == 0) return "runtime.catalog";
  if (span.rfind("engine.", 0) == 0) return "kde.engine";
  if (span.rfind("kernel.", 0) == 0) return "kde.kernel_backend";
  if (span.rfind("queue.", 0) == 0) return "parallel.command_queue";
  if (span.rfind("pool.", 0) == 0) return "parallel.thread_pool";
  return "kde.estimator";
}

std::string LayerTable(const WorkloadShape& shape, const Tracer& tracer,
                       double catalog_self_us) {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "%-12s %-24s %-22s %8s %12s %12s\n",
                "workload", "layer", "span", "calls", "mean_us",
                "self_us");
  out += line;
  for (const SpanTotals& t : tracer.Totals()) {
    std::snprintf(line, sizeof(line),
                  "%-12s %-24s %-22s %8zu %12.3f %12.3f\n", shape.name,
                  LayerOf(t.name), t.name.c_str(), t.count,
                  Ratio(t.total_us, t.count), Ratio(t.self_us, t.count));
    out += line;
  }
  if (shape.path == ServingPath::kCatalog) {
    std::snprintf(line, sizeof(line),
                  "%-12s %-24s %-22s %8s %12s %12.3f\n", shape.name,
                  "runtime.catalog", "catalog.estimate-estimator", "-", "-",
                  catalog_self_us);
    out += line;
  }
  return out;
}

/// The traced run: per-layer metrics from counters read around the
/// untraced run, spans of a traced pass over a fresh set-up, and a replay
/// of that pass one layer lower.
void AddPerLayer(const WorkloadShape& shape, const Options& options,
                 const Fixture& measured, const Served& untraced,
                 RunResult* result) {
  std::unique_ptr<Fixture> f = SetUp(shape, options.seed);
  Tracer tracer;
  const Served traced = Serve(*f, options.seconds, &tracer);
  // The replay passes together take about as long as the traced pass.
  const std::unique_ptr<Replay> replay = RunReplay(
      *f, f->model.get(), traced.cycles, options.seconds / 3, &tracer);
  const bool catalog = shape.path == ServingPath::kCatalog;
  const double n = static_cast<double>(untraced.measured_cycles());
  const Counters& b = untraced.before;
  const Counters& a = untraced.after;

  // runtime.catalog
  std::vector<double> catalog_self;
  if (catalog) {
    const std::vector<double> outer = tracer.Durations("catalog.estimate");
    const std::vector<double> inner = tracer.Durations("estimator.estimate");
    for (std::size_t i = 0; i < std::min(outer.size(), inner.size()); ++i) {
      catalog_self.push_back(outer[i] - inner[i]);
    }
  }
  const double faults =
      static_cast<double>(a.catalog.faults - b.catalog.faults);
  const double evictions =
      static_cast<double>(a.catalog.evictions - b.catalog.evictions);
  Add(result, "catalog.self_us", Median(catalog_self), "us",
      catalog_self.size(), "median catalog.estimate - estimator.estimate");
  Add(result, "catalog.hit_ratio", catalog ? 1.0 - Ratio(faults, n) : 0.0,
      "ratio", untraced.measured_cycles(),
      "0 when the workload bypasses the catalog");
  Add(result, "catalog.faults_per_kq", 1000.0 * Ratio(faults, n), "count",
      untraced.measured_cycles());
  Add(result, "catalog.evictions_per_kq", 1000.0 * Ratio(evictions, n),
      "count", untraced.measured_cycles());
  const Summary fault = Summarize(traced.fault_call_us);
  Add(result, "catalog.fault_us", fault.mean, "us", fault.count,
      "mean estimate call that faulted a model in");

  // kde.snapshot, on the estimator the probes read.
  KdeSelectivityEstimator* estimator =
      catalog ? replay->replicas[0].get() : f->model.get();
  std::vector<double> save_us;
  std::vector<double> restore_us;
  std::size_t snapshot_bytes = 0;
  {
    std::unique_ptr<fkde::DeviceGroup> restore_group =
        MakeGroup(shape.device, shape.pool_threads);
    for (int rep = 0; rep < kProbeRepetitions; ++rep) {
      std::vector<std::uint8_t> blob;
      save_us.push_back(Timed(&tracer, "snapshot.save", 0, [&] {
        blob = fkde::SnapshotModel(estimator).MoveValueOrDie();
      }));
      snapshot_bytes = blob.size();
      restore_us.push_back(Timed(&tracer, "snapshot.restore", 0, [&] {
        fkde::RestoreModel(blob, restore_group.get(), &f->tables[0])
            .MoveValueOrDie();
      }));
    }
  }
  Add(result, "snapshot.bytes", static_cast<double>(snapshot_bytes), "bytes");
  Add(result, "snapshot.save_us", Median(save_us), "us", save_us.size());
  Add(result, "snapshot.restore_us", Median(restore_us), "us",
      restore_us.size());

  // kde.estimator
  const bool stream = shape.path == ServingPath::kStream;
  const std::vector<double> est_spans =
      stream ? traced.stream_estimate_us
             : tracer.Durations("estimator.estimate");
  const std::vector<double> fb_spans =
      tracer.Durations(stream ? "stream.feedback" : "estimator.feedback");
  Add(result, "estimator.estimate_us", Median(est_spans), "us",
      est_spans.size());
  Add(result, "estimator.feedback_us", Median(fb_spans), "us",
      fb_spans.size());
  std::size_t karma = 0;
  if (catalog) {
    for (const auto& replica : replay->replicas) {
      karma += replica->karma_replacements();
    }
  } else {
    karma = f->model->karma_replacements();
  }
  const std::size_t karma_cycles =
      catalog ? replay->replica_cycles : traced.cycles;
  std::size_t quality_n = 0;
  const double abs_err = AbsErrMean(measured, untraced, &quality_n);
  Add(result, "estimator.abs_err_mean", abs_err, "fraction", quality_n,
      "mean |estimate - truth| over the first calls, untraced run");
  Add(result, "estimator.karma_replacements_per_kq",
      1000.0 * Ratio(karma, karma_cycles), "count", karma_cycles);
  const Summary reopt = Summarize(traced.reopt_call_us);
  Add(result, "estimator.reopts", static_cast<double>(reopt.count), "count",
      traced.cycles, "feedback calls that re-optimized, traced pass");
  Add(result, "estimator.reopt_s", reopt.mean * 1e-6, "s", reopt.count,
      "mean wall time of a re-optimizing feedback call");

  // opt and kde.engine: replay OptimizeBandwidthBatch over the model's
  // feedback ring (Periodic mode) or the model's last served queries.
  std::vector<fkde::Query> ring;
  if (shape.mode == Mode::kPeriodic) {
    ring = f->model->feedback_ring();
  } else {
    const std::size_t want = 64;
    for (std::size_t i = traced.cycles; i-- > 0 && ring.size() < want;) {
      if (f->ModelAt(i) == 0) ring.push_back(f->QueryAt(i));
    }
  }
  // The probe engine already carries the model's adapted bandwidth.
  fkde::KdeEngine* engine = replay->probe->engine();
  const std::vector<double> bandwidth = engine->bandwidth();
  fkde::BatchOptions batch = f->configs[0].batch;
  batch.loss = f->configs[0].loss;
  batch.lambda = f->configs[0].lambda;
  std::vector<fkde::Box> boxes;
  std::vector<double> truths;
  for (const fkde::Query& q : ring) {
    boxes.push_back(q.box);
    truths.push_back(q.selectivity);
  }
  std::vector<double> batch_loss_us;
  std::vector<double> gradient;
  for (int rep = 0; rep < kProbeRepetitions; ++rep) {
    batch_loss_us.push_back(Timed(&tracer, "engine.batch_loss", 0, [&] {
      engine->EstimateBatchLoss(boxes, truths, batch.loss, batch.lambda,
                                &gradient);
    }));
  }
  // An optimization takes on the order of a hundred evaluations; skip the
  // replay where that would take longer than the run itself.
  fkde::BatchReport report;
  double opt_us = 0.0;
  const bool replay_opt =
      Median(batch_loss_us) * 100.0 < options.seconds * 1e6;
  if (replay_opt) {
    engine->SetBandwidth(bandwidth).AbortIfError("bandwidth");
    fkde::Rng rng(options.seed);
    opt_us = Timed(&tracer, "opt.optimize", 0, [&] {
      report = fkde::OptimizeBandwidthBatch(engine, ring, batch, &rng)
                   .MoveValueOrDie();
    });
  }
  Add(result, "opt.evaluations", static_cast<double>(report.evaluations),
      "count", 1,
      replay_opt ? "one OptimizeBandwidthBatch over the ring"
                 : "not replayed: 100 evaluations exceed the run time");
  Add(result, "opt.eval_us", Ratio(opt_us, report.evaluations), "us",
      report.evaluations);
  const std::vector<double> engine_us = tracer.Durations("engine.estimate");
  Add(result, "engine.estimate_us", Median(engine_us), "us", engine_us.size());
  Add(result, "engine.batch_loss_us", Median(batch_loss_us), "us",
      batch_loss_us.size(), "EstimateBatchLoss over the ring");

  // kde.kernel_backend
  const double s_d = static_cast<double>(shape.sample_size * shape.dims);
  const double pair_evals =
      s_d * static_cast<double>(engine_us.size() +
                                boxes.size() * batch_loss_us.size());
  const double engine_s =
      1e-6 * (std::accumulate(engine_us.begin(), engine_us.end(), 0.0) +
              std::accumulate(batch_loss_us.begin(), batch_loss_us.end(), 0.0));
  Add(result, "kernel.pair_evals_per_s", Ratio(pair_evals, engine_s), "1/s",
      engine_us.size() + batch_loss_us.size(),
      "sample x queries x dims over engine wall time");
  const std::vector<double> kernel_us = tracer.Durations("kernel.contribution");
  Add(result, "kernel.contribution_us", Median(kernel_us), "us",
      kernel_us.size(), "raw single-thread contribution loop, one query");
  const std::vector<double> gradient_us = tracer.Durations("kernel.gradient");
  Add(result, "kernel.gradient_us", Median(gradient_us), "us",
      gradient_us.size(), "raw single-thread gradient loop, one query");

  // parallel.command_queue
  const double devices = static_cast<double>(f->group->size());
  Add(result, "queue.commands_per_query",
      Ratio(static_cast<double>(a.queue.total_commands -
                                b.queue.total_commands),
            n),
      "count", untraced.measured_cycles());
  const std::vector<double> roundtrip = tracer.Durations("queue.roundtrip");
  Add(result, "queue.roundtrip_us", Median(roundtrip), "us", roundtrip.size());
  Add(result, "queue.dispatcher_busy_ratio",
      1.0 - Ratio(a.queue.dispatcher_wait_s - b.queue.dispatcher_wait_s,
                  untraced.wall_s * devices),
      "ratio", untraced.measured_cycles());
  Add(result, "queue.depth_high_water",
      static_cast<double>(a.queue.depth_high_water), "count");

  // parallel.thread_pool
  const std::vector<double> fork_join = tracer.Durations("pool.fork_join");
  Add(result, "pool.fork_join_us", Median(fork_join), "us", fork_join.size());

  // parallel.device, from the untraced run's counters.
  const double modeled_s = a.modeled_s - b.modeled_s;
  Add(result, "device.launches_per_query",
      Ratio(static_cast<double>(a.ledger.kernel_launches -
                                b.ledger.kernel_launches),
            n),
      "count", untraced.measured_cycles());
  Add(result, "device.bytes_per_query",
      Ratio(static_cast<double>(a.ledger.total_bytes() -
                                b.ledger.total_bytes()),
            n),
      "bytes", untraced.measured_cycles());
  Add(result, "device.modeled_us_per_query", 1e6 * Ratio(modeled_s, n), "us",
      untraced.measured_cycles());
  Add(result, "device.idle_gap", Ratio(a.stall_s - b.stall_s, modeled_s),
      "ratio", untraced.measured_cycles());
  const double model_gap = Ratio(untraced.wall_s, modeled_s);
  Add(result, "device.model_gap", model_gap, "ratio",
      untraced.measured_cycles(),
      "wall over modeled time, untraced run");
  const double alt_gap = Ratio(replay->alt_wall_s, replay->alt_modeled_s);
  const bool on_cpu = std::strcmp(shape.device, "cpu") == 0;
  Add(result, "device.model_gap.cpu", on_cpu ? model_gap : alt_gap, "ratio",
      on_cpu ? untraced.measured_cycles() : replay->alt_cycles);
  Add(result, "device.model_gap.cpu-simd", on_cpu ? alt_gap : model_gap,
      "ratio", on_cpu ? replay->alt_cycles : untraced.measured_cycles());

  // runtime.streaming_executor
  const fkde::StreamingReport executor =
      RunExecutor(*f, kExecutorPrefix, /*pipeline=*/true);
  Add(result, "stream.modeled_qps", executor.throughput_qps, "1/s",
      executor.completed, "modeled clock, model 0, window 4");
  Add(result, "stream.idle_gap", executor.idle_gap, "ratio",
      executor.completed);

  // Set-up phases, and the cost of tracing itself.
  Add(result, "setup.table_s", measured.table_s, "s");
  Add(result, "setup.queries_s", measured.queries_s, "s");
  Add(result, "setup.build_s", measured.build_s, "s");
  Add(result, "trace.overhead_ratio",
      Ratio(Ratio(traced.measured_cycles(), traced.wall_s),
            Ratio(untraced.measured_cycles(), untraced.wall_s)),
      "ratio", traced.measured_cycles(), "traced over untraced throughput");

  result->layer_table = LayerTable(shape, tracer, Median(catalog_self));
  if (!options.out_dir.empty()) {
    const std::string base = options.out_dir + "/" + shape.name + "-seed" +
                             std::to_string(options.seed);
    tracer.WriteChromeTrace(base + ".trace.json", shape.name);
    if (std::FILE* out = std::fopen((base + ".layers.txt").c_str(), "w")) {
      std::fputs(result->layer_table.c_str(), out);
      std::fclose(out);
    }
  }
}

}  // namespace

const WorkloadShape* FindWorkload(const std::string& name) {
  for (const WorkloadShape& shape : kWorkloads) {
    if (name == shape.name) return &shape;
  }
  return nullptr;
}

RunResult RunWorkload(const WorkloadShape& shape, const Options& options) {
  const Clock::time_point t0 = Clock::now();
  const std::unique_ptr<Fixture> f = SetUp(shape, options.seed);
  const double setup_s = Seconds(Clock::now() - t0);
  const Served served = Serve(*f, options.seconds, nullptr);
  const double peak_rss_mb = PeakRssMb();

  RunResult result;
  result.attempted = served.ops;
  result.failed = served.failed_ops;
  result.check_failures = served.failures;
  if (options.check) CheckOutputs(*f, served, &result);

  if (options.trace) {
    AddPerLayer(shape, options, *f, served, &result);
  } else {
    AddEndToEnd(*f, served, setup_s, peak_rss_mb, &result);
  }
  return result;
}

}  // namespace perfbench
