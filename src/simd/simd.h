#ifndef UPSKILL_SIMD_SIMD_H_
#define UPSKILL_SIMD_SIMD_H_

namespace upskill {
namespace simd {

/// Vector backend driving the batched log-prob kernels that fill a fit's
/// item cache (simd/kernels.h). The assignment DP has no vector kernel:
/// core/dp.cc runs one scalar row loop for every S. The backend is picked
/// once per process:
///
///   compile time  — kAvx2 on x86-64 (the AVX2 bodies live in a dedicated
///                   translation unit built with -mavx2), kScalar
///                   everywhere else;
///   run time      — demoted to kScalar when the CPU lacks AVX2 (cpuid) or
///                   when the UPSKILL_FORCE_SCALAR environment variable is
///                   set to anything but "" or "0" (the kill switch CI uses
///                   to keep the fallback path green).
///
/// Every dispatched kernel is bitwise identical across backends, so the
/// choice can never change results — only speed. That is what lets tests
/// sweep backends and compare with operator==.
enum class Backend {
  kScalar,
  kAvx2,
};

/// The backend every dispatched kernel uses right now.
Backend ActiveBackend();

/// Stable lowercase name of ActiveBackend(): "scalar", "avx2".
const char* BackendName();

/// True when ActiveBackend() != kScalar.
inline bool VectorEnabled() { return ActiveBackend() != Backend::kScalar; }

/// Test/bench hook: forces the scalar fallback on (true) or restores the
/// detected backend (false), overriding UPSKILL_FORCE_SCALAR. Affects
/// subsequent kernel dispatches process-wide; not for production code.
void ForceScalarForTest(bool force);

}  // namespace simd
}  // namespace upskill

#endif  // UPSKILL_SIMD_SIMD_H_
