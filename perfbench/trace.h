/// \file trace.h
/// \brief In-memory spans of the traced run, written when the run ends.
///
/// A span records one call the benchmark makes into a layer: name, start,
/// end, the span open around it (its parent) and the query it serves.
/// Spans nest by call order on the one client thread. A span's self time
/// is its duration minus the part of it covered by its child spans.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  double start_us = 0.0;  ///< Since the tracer was created.
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< Index of the enclosing span, -1 if none.
  std::uint64_t query = 0;
  double duration_us() const { return end_us - start_us; }
};

/// \brief Per span name: call count, total and self time.
struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

class Tracer {
 public:
  Tracer();

  /// Opens a span nested in the innermost open span and returns its index.
  std::size_t Begin(const char* name, std::uint64_t query);
  /// Closes span `index`, which must be the innermost open span.
  void End(std::size_t index);

  /// \brief Opens a span for the lifetime of the scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t query)
        : tracer_(tracer), index_(tracer->Begin(name, query)) {}
    ~Scope() { tracer_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  double NowUs() const;
  /// Durations of every span called `name`, in recording order.
  std::vector<double> Durations(const char* name) const;
  /// Per-name totals in first-seen order.
  std::vector<SpanTotals> Totals() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps; load in chrome://tracing or Perfetto).
  bool WriteChromeTrace(const std::string& path,
                        const std::string& process_name) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
