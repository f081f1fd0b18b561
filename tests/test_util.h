#ifndef SCOTTY_TESTS_TEST_UTIL_H_
#define SCOTTY_TESTS_TEST_UTIL_H_

// Thin re-export of the shared testing library (src/testing/). The helpers
// used to live here; they moved so the differential fuzzing harness and the
// gtest suites exercise the exact same oracle and stream machinery.

#include <vector>

#include "aggregates/kernels.h"
#include "common/value.h"
#include "testing/harness.h"
#include "testing/oracle.h"
#include "testing/stream_gen.h"

namespace scotty {
namespace testutil {

using testing::BruteForce;
using testing::BruteForceCount;
using testing::FinalResults;
using testing::ResultKey;
using testing::RunStream;
using testing::RunToFinalResults;
using testing::T;

/// Numeric comparison helper tolerant of both int64 and double payloads.
inline double Num(const Value& v) { return v.Numeric(); }

/// Every kernel mode this binary+CPU can actually run (always includes
/// scalar; SSE2/AVX2 when compiled in and supported).
inline std::vector<simd::KernelMode> SupportedModes() {
  std::vector<simd::KernelMode> modes = {simd::KernelMode::kScalar};
  for (const simd::KernelMode m :
       {simd::KernelMode::kSse2, simd::KernelMode::kAvx2}) {
    simd::SetModeForTesting(m);
    if (simd::ActiveMode() == m) modes.push_back(m);
  }
  simd::SetModeForTesting(simd::KernelMode::kAuto);
  return modes;
}

/// RAII pin for a kernel mode so a failing ASSERT cannot leak the override
/// into later tests.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(simd::KernelMode m) { simd::SetModeForTesting(m); }
  ~ScopedKernelMode() { simd::SetModeForTesting(simd::KernelMode::kAuto); }
  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;
};

}  // namespace testutil
}  // namespace scotty

#endif  // SCOTTY_TESTS_TEST_UTIL_H_
