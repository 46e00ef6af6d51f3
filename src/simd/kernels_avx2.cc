// AVX2 kernel bodies. This translation unit is compiled with -mavx2 (and
// nothing more — in particular no -mfma, and the project builds with
// -ffp-contract=off) so the vector code below uses exactly the IEEE
// operations of the scalar references: vaddpd/vsubpd/vmulpd/vdivpd are
// element-wise identical to their scalar counterparts, and cmp+blendv
// reproduces the scalar `x > 0 ? ... : -inf` select including its NaN
// behavior (_CMP_GT_OQ is false on unordered, like scalar >). kernels.cc only calls in here after
// the runtime cpuid / UPSKILL_FORCE_SCALAR check.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <limits>

#include "simd/kernels.h"
#include "simd/kernels_impl.h"

namespace upskill {
namespace simd {
namespace avx2 {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

void LookupLogProbBatch(std::span<const double> xs,
                        std::span<const double> table, std::span<double> out,
                        bool* any_table_overflow) {
  const size_t n = xs.size();
  const __m256d neg_inf = _mm256_set1_pd(kNegInf);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d size_v = _mm256_set1_pd(static_cast<double>(table.size()));
  __m256d overflow_acc = zero;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs.data() + i);
    const __m256d truncated =
        _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    // NaN fails the EQ compare, so it lands in the invalid (-inf) lanes.
    const __m256d integral = _mm256_and_pd(
        _mm256_cmp_pd(truncated, x, _CMP_EQ_OQ),
        _mm256_cmp_pd(x, zero, _CMP_GE_OQ));
    const __m256d in_range = _mm256_cmp_pd(x, size_v, _CMP_LT_OQ);
    const __m256d valid = _mm256_and_pd(integral, in_range);
    overflow_acc =
        _mm256_or_pd(overflow_acc, _mm256_andnot_pd(in_range, integral));
    // Zero the invalid lanes' indices, and gather under the validity
    // mask (masked-off lanes never touch memory and keep the -inf src).
    const __m256d safe_x = _mm256_and_pd(x, valid);
    const __m128i idx = _mm256_cvttpd_epi32(safe_x);
    _mm256_storeu_pd(out.data() + i, _mm256_mask_i32gather_pd(
                                         neg_inf, table.data(), idx, valid, 8));
  }
  if (any_table_overflow != nullptr && _mm256_movemask_pd(overflow_acc) != 0) {
    *any_table_overflow = true;
  }
  if (i < n) {
    scalar::LookupLogProbBatch(xs.subspan(i), table, out.subspan(i),
                               any_table_overflow);
  }
}

void GammaLogProbBatch(std::span<const double> xs,
                       std::span<const double> log_xs, double shape_minus_one,
                       double scale, double log_gamma_shape,
                       double shape_log_scale, std::span<double> out) {
  const size_t n = xs.size();
  const __m256d neg_inf = _mm256_set1_pd(kNegInf);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sm1_v = _mm256_set1_pd(shape_minus_one);
  const __m256d scale_v = _mm256_set1_pd(scale);
  const __m256d lgs_v = _mm256_set1_pd(log_gamma_shape);
  const __m256d sls_v = _mm256_set1_pd(shape_log_scale);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs.data() + i);
    const __m256d log_x = _mm256_loadu_pd(log_xs.data() + i);
    // sm1 * log(x) - x / scale - log_gamma_shape - shape * log_scale,
    // left to right exactly as in Gamma::LogProbBatch.
    __m256d r = _mm256_sub_pd(_mm256_mul_pd(sm1_v, log_x),
                              _mm256_div_pd(x, scale_v));
    r = _mm256_sub_pd(r, lgs_v);
    r = _mm256_sub_pd(r, sls_v);
    const __m256d positive = _mm256_cmp_pd(x, zero, _CMP_GT_OQ);
    _mm256_storeu_pd(out.data() + i, _mm256_blendv_pd(neg_inf, r, positive));
  }
  if (i < n) {
    scalar::GammaLogProbBatch(xs.subspan(i), log_xs.subspan(i),
                              shape_minus_one, scale, log_gamma_shape,
                              shape_log_scale, out.subspan(i));
  }
}

void LogNormalLogProbBatch(std::span<const double> xs,
                           std::span<const double> log_xs, double mu,
                           double sigma, double log_sigma,
                           double half_log_two_pi, std::span<double> out) {
  const size_t n = xs.size();
  const __m256d neg_inf = _mm256_set1_pd(kNegInf);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d mu_v = _mm256_set1_pd(mu);
  const __m256d sigma_v = _mm256_set1_pd(sigma);
  const __m256d log_sigma_v = _mm256_set1_pd(log_sigma);
  const __m256d hltp_v = _mm256_set1_pd(half_log_two_pi);
  const __m256d neg_half = _mm256_set1_pd(-0.5);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs.data() + i);
    const __m256d log_x = _mm256_loadu_pd(log_xs.data() + i);
    const __m256d z = _mm256_div_pd(_mm256_sub_pd(log_x, mu_v), sigma_v);
    // (-0.5 * z) * z - log_x - log_sigma - half_log_two_pi, matching the
    // scalar association of -0.5 * z * z.
    __m256d r = _mm256_mul_pd(_mm256_mul_pd(neg_half, z), z);
    r = _mm256_sub_pd(r, log_x);
    r = _mm256_sub_pd(r, log_sigma_v);
    r = _mm256_sub_pd(r, hltp_v);
    const __m256d positive = _mm256_cmp_pd(x, zero, _CMP_GT_OQ);
    _mm256_storeu_pd(out.data() + i, _mm256_blendv_pd(neg_inf, r, positive));
  }
  if (i < n) {
    scalar::LogNormalLogProbBatch(xs.subspan(i), log_xs.subspan(i), mu, sigma,
                                  log_sigma, half_log_two_pi, out.subspan(i));
  }
}

}  // namespace avx2
}  // namespace simd
}  // namespace upskill

#endif  // x86-64
