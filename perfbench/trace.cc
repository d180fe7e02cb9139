#include "trace.h"

#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::size_t Tracer::Begin(const char* name, std::uint64_t query) {
  Span span;
  span.name = name;
  span.query = query;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  spans_.back().start_us = NowUs();
  return spans_.size() - 1;
}

void Tracer::End(std::size_t index) {
  spans_[index].end_us = NowUs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) out.push_back(span.duration_us());
  }
  return out;
}

std::vector<SpanTotals> Tracer::Totals() const {
  // Children are recorded after their parent and close before it, so one
  // pass can charge each span's duration to its parent's child time.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_us[span.parent] += span.duration_us();
  }
  std::vector<SpanTotals> totals;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto [it, inserted] = index.emplace(span.name, totals.size());
    if (inserted) totals.push_back(SpanTotals{span.name});
    SpanTotals& t = totals[it->second];
    ++t.count;
    t.total_us += span.duration_us();
    t.self_us += span.duration_us() - child_us[i];
  }
  return totals;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& process_name) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 1, \"args\": {\"name\": \"%s\"}}",
               process_name.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld, \"query\": %llu}}",
                 span.name,
                 static_cast<int>(std::strcspn(span.name, ".")), span.name,
                 span.start_us, span.duration_us(), i,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.query));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
