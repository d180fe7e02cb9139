/// \file main.cc
/// \brief Command line of the wall-clock serving benchmark.
///
///   fkde_perfbench --workload serve_hot --seed 1 --seconds 10 --trace 0
///                  [--check 0|1] [--out DIR] [--source-rev REV]
///
/// Prints the run record, every metric with its sample count, and (traced
/// runs) the per-layer self-time table; the last line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an output
/// check fails, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "record.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: fkde_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--check 0|1] [--out DIR] "
               "[--source-rev REV]\n",
               message);
  return 2;
}

std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

std::string ResultJson(const RunResult& result, bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

/// The full result, with sample counts, notes and the run record.
std::string DetailJson(const RunRecord& record, const RunResult& result,
                       bool correct) {
  std::string out = "{\"record\": " + RecordJson(record);
  out += ", \"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"failed_ratio\": " +
         Number(result.attempted > 0
                    ? static_cast<double>(result.failed) / result.attempted
                    : 0.0);
  out += ", \"metrics\": [";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out += (i > 0 ? ",\n  " : "\n  ");
    out += "{\"name\": \"" + m.name + "\", \"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit +
           "\", \"samples\": " + std::to_string(m.samples) +
           ", \"note\": \"" + m.note + "\"}";
  }
  return out + "]}\n";
}

int Main(int argc, char** argv) {
  std::string workload;
  Options options;
  std::string source_rev = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--check") {
      if (value != "0" && value != "1") return Usage("--check takes 0 or 1");
      options.check = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else if (flag == "--source-rev") {
      source_rev = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const WorkloadShape* shape = FindWorkload(workload);
  if (shape == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  const RunRecord record = MakeRunRecord(workload, options.seed, source_rev);
  std::printf("record: %s\n", RecordJson(record).c_str());
  if (!record.optimized) {
    std::printf("WARNING: non-optimized build (%s); timings are not "
                "comparable with an optimized build\n",
                record.build_type.c_str());
  }
  if (std::string(shape->device) == "cpu-simd" && !record.simd_kernels) {
    std::printf("WARNING: no AVX2 kernel path; %s runs scalar kernels\n",
                shape->name);
  }

  const RunResult result = RunWorkload(*shape, options);
  const bool correct = result.failed == 0 && result.check_failures.empty();

  std::printf("%-36s %16s %-9s %9s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const Metric& m : result.metrics) {
    std::printf("%-36s %16.6g %-9s %9zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
  std::printf("%s", result.layer_table.c_str());
  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/" + workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fputs(DetailJson(record, result, correct).c_str(), f);
      std::fclose(f);
    }
  }
  std::printf("%s\n", ResultJson(result, correct).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
