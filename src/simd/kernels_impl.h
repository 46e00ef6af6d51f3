#ifndef UPSKILL_SIMD_KERNELS_IMPL_H_
#define UPSKILL_SIMD_KERNELS_IMPL_H_

// Internal: the AVX2 kernel bodies, shared between the dispatchers in
// kernels.cc and kernels_avx2.cc (the one translation unit built with
// -mavx2). On other architectures every kernel runs its scalar reference.

#include <span>

namespace upskill {
namespace simd {

#if defined(__x86_64__) || defined(_M_X64)
namespace avx2 {

void LookupLogProbBatch(std::span<const double> xs,
                        std::span<const double> table, std::span<double> out,
                        bool* any_table_overflow);
void GammaLogProbBatch(std::span<const double> xs,
                       std::span<const double> log_xs, double shape_minus_one,
                       double scale, double log_gamma_shape,
                       double shape_log_scale, std::span<double> out);
void LogNormalLogProbBatch(std::span<const double> xs,
                           std::span<const double> log_xs, double mu,
                           double sigma, double log_sigma,
                           double half_log_two_pi, std::span<double> out);

}  // namespace avx2
#endif  // x86-64

}  // namespace simd
}  // namespace upskill

#endif  // UPSKILL_SIMD_KERNELS_IMPL_H_
