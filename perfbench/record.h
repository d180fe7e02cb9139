/// \file record.h
/// \brief The run record printed with every result: what was measured,
/// built how, on which host.

#ifndef PERFBENCH_RECORD_H_
#define PERFBENCH_RECORD_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunRecord {
  std::string workload;
  std::uint64_t seed = 0;
  std::string source_rev;  ///< Git revision or source digest, from run.py.
  unsigned nproc = 0;
  bool avx2 = false;
  bool avx512f = false;
  std::string build_type;
  bool optimized = false;   ///< Compiled with optimization and NDEBUG.
  bool simd_kernels = false;  ///< The AVX2 kernel backend is in use.
  double simd_ratio = 1.0;  ///< Measured simd/scalar kernel throughput.
};

/// Fills the host, build and calibration fields (runs the kernel backend
/// calibration once per process).
RunRecord MakeRunRecord(const std::string& workload, std::uint64_t seed,
                        const std::string& source_rev);

/// One-line JSON rendering of the record.
std::string RecordJson(const RunRecord& record);

/// Peak resident set size of this process so far, MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_RECORD_H_
