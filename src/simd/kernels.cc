#include "simd/kernels.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "simd/kernels_impl.h"

// Dispatchers + scalar reference bodies. Backend coverage:
//
//   kernel                  avx2  (everything else: scalar)
//   LookupLogProbBatch       x
//   GammaLogProbBatch        x
//   LogNormalLogProbBatch    x
//
// Each kernel fills one (feature, level) cell of a fit's item cache, so
// the one predictable dispatch branch per call is amortized over a whole
// batch. The assignment DP has no vector kernel: core/dp.cc runs one
// scalar row loop, at a compile-time width for S <= 8 (rows held in
// registers) and at a run-time width above that (DESIGN.md §8).

namespace upskill {
namespace simd {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

namespace scalar {

void LookupLogProbBatch(std::span<const double> xs,
                        std::span<const double> table, std::span<double> out,
                        bool* any_table_overflow) {
  const double size_d = static_cast<double>(table.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    // Double-domain validity (NaN fails the trunc compare) so the vector
    // lanes can evaluate the same predicates without integer casts.
    const bool integral = std::trunc(x) == x && x >= 0.0;
    if (integral && x < size_d) {
      out[i] = table[static_cast<size_t>(x)];
    } else {
      out[i] = kNegInf;
      if (integral && any_table_overflow != nullptr) {
        *any_table_overflow = true;
      }
    }
  }
}

void GammaLogProbBatch(std::span<const double> xs,
                       std::span<const double> log_xs, double shape_minus_one,
                       double scale, double log_gamma_shape,
                       double shape_log_scale, std::span<double> out) {
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    out[i] = !(x > 0.0) ? kNegInf
                        : shape_minus_one * log_xs[i] - x / scale -
                              log_gamma_shape - shape_log_scale;
  }
}

void LogNormalLogProbBatch(std::span<const double> xs,
                           std::span<const double> log_xs, double mu,
                           double sigma, double log_sigma,
                           double half_log_two_pi, std::span<double> out) {
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    if (!(x > 0.0)) {
      out[i] = kNegInf;
      continue;
    }
    const double log_x = log_xs[i];
    const double z = (log_x - mu) / sigma;
    out[i] = -0.5 * z * z - log_x - log_sigma - half_log_two_pi;
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatchers.
// ---------------------------------------------------------------------------

#if defined(__x86_64__) || defined(_M_X64)
#define UPSKILL_DISPATCH_VECTOR(ns_fn, ...)           \
  do {                                                \
    if (ActiveBackend() == Backend::kAvx2) {          \
      avx2::ns_fn(__VA_ARGS__);                       \
      return;                                         \
    }                                                 \
  } while (0)
#else
#define UPSKILL_DISPATCH_VECTOR(ns_fn, ...) \
  do {                                      \
  } while (0)
#endif

void LookupLogProbBatch(std::span<const double> xs,
                        std::span<const double> table, std::span<double> out,
                        bool* any_table_overflow) {
  UPSKILL_CHECK(xs.size() == out.size());
  UPSKILL_DISPATCH_VECTOR(LookupLogProbBatch, xs, table, out,
                          any_table_overflow);
  scalar::LookupLogProbBatch(xs, table, out, any_table_overflow);
}

void GammaLogProbBatch(std::span<const double> xs,
                       std::span<const double> log_xs, double shape_minus_one,
                       double scale, double log_gamma_shape,
                       double shape_log_scale, std::span<double> out) {
  UPSKILL_CHECK(xs.size() == out.size());
  UPSKILL_CHECK(xs.size() == log_xs.size());
  UPSKILL_DISPATCH_VECTOR(GammaLogProbBatch, xs, log_xs, shape_minus_one,
                          scale, log_gamma_shape, shape_log_scale, out);
  scalar::GammaLogProbBatch(xs, log_xs, shape_minus_one, scale,
                            log_gamma_shape, shape_log_scale, out);
}

void LogNormalLogProbBatch(std::span<const double> xs,
                           std::span<const double> log_xs, double mu,
                           double sigma, double log_sigma,
                           double half_log_two_pi, std::span<double> out) {
  UPSKILL_CHECK(xs.size() == out.size());
  UPSKILL_CHECK(xs.size() == log_xs.size());
  UPSKILL_DISPATCH_VECTOR(LogNormalLogProbBatch, xs, log_xs, mu, sigma,
                          log_sigma, half_log_two_pi, out);
  scalar::LogNormalLogProbBatch(xs, log_xs, mu, sigma, log_sigma,
                                half_log_two_pi, out);
}

#undef UPSKILL_DISPATCH_VECTOR

}  // namespace simd
}  // namespace upskill
