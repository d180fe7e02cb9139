#include "record.h"

#include <sys/resource.h>

#include <cstdio>
#include <thread>

#include "kde/kernel_backend.h"
#include "parallel/simd.h"

namespace perfbench {

RunRecord MakeRunRecord(const std::string& workload, std::uint64_t seed,
                        const std::string& source_rev) {
  RunRecord r;
  r.workload = workload;
  r.seed = seed;
  r.source_rev = source_rev;
  r.nproc = std::thread::hardware_concurrency();
  __builtin_cpu_init();
  r.avx2 = __builtin_cpu_supports("avx2");
  r.avx512f = __builtin_cpu_supports("avx512f");
  r.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  r.optimized = true;
#endif
  r.simd_kernels = fkde::ResolveKernelBackend(fkde::KernelBackend::kSimd) ==
                   fkde::KernelBackend::kSimd;
  r.simd_ratio = fkde::kb::CalibrateKernelBackends().ratio;
  return r;
}

std::string RecordJson(const RunRecord& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, "
                "\"source_rev\": \"%s\", \"nproc\": %u, \"avx2\": %s, "
                "\"avx512f\": %s, \"build_type\": \"%s\", \"optimized\": %s, "
                "\"simd_kernels\": %s, \"simd_ratio\": %.6g}",
                r.workload.c_str(), static_cast<unsigned long long>(r.seed),
                r.source_rev.c_str(), r.nproc, r.avx2 ? "true" : "false",
                r.avx512f ? "true" : "false", r.build_type.c_str(),
                r.optimized ? "true" : "false",
                r.simd_kernels ? "true" : "false", r.simd_ratio);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace perfbench
