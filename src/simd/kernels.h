#ifndef UPSKILL_SIMD_KERNELS_H_
#define UPSKILL_SIMD_KERNELS_H_

#include <cstddef>
#include <span>

#include "simd/simd.h"

namespace upskill {
namespace simd {

// Dispatched hot-loop kernels. Each function picks the ActiveBackend()
// implementation; the `scalar::` namespace exposes the reference loops
// directly so equivalence tests can compare the dispatched path against
// the fallback bitwise without touching the process-wide backend switch.
//
// Bitwise-exactness contract: the vector bodies perform exactly the
// scalar reference's operations (same IEEE adds, multiplies, divides,
// compares and selects, in the same per-element order) and never use FMA,
// so results are bitwise identical on every backend. Where a compiler could contract a*b+c into an FMA in ordinary
// code, these kernels are the anchor: the scalar references are written
// so the vector lanes can mirror them operation for operation.

// ---------------------------------------------------------------------------
// Batched log-prob kernels (SoA spans, one call per (feature, level) cell).
// ---------------------------------------------------------------------------

/// Integer-table lookup: out[i] = table[(int)xs[i]] when xs[i] is an exact
/// non-negative integer below table.size(), else -infinity. When
/// `any_table_overflow` is non-null it is set to true if any xs[i] was an
/// exact non-negative integer >= table.size() (those lanes still receive
/// -infinity; the caller patches them — the Poisson kernel recomputes the
/// rare counts beyond its precomputed table). Backs Categorical (table =
/// per-category log-probs) and Poisson (table = precomputed per-count
/// log-probs) batches.
void LookupLogProbBatch(std::span<const double> xs,
                        std::span<const double> table, std::span<double> out,
                        bool* any_table_overflow);

/// Gamma log-density body with the logs precomputed: for each i,
///   out[i] = xs[i] <= 0 ? -inf
///          : ((shape_minus_one * log_xs[i] - xs[i] / scale)
///             - log_gamma_shape) - shape_log_scale
/// log_xs[i] must equal std::log(xs[i]) for every xs[i] > 0 (other lanes
/// are ignored). The expression order matches Gamma::LogProb term for
/// term, so results are bitwise identical to the virtual scalar path.
void GammaLogProbBatch(std::span<const double> xs,
                       std::span<const double> log_xs, double shape_minus_one,
                       double scale, double log_gamma_shape,
                       double shape_log_scale, std::span<double> out);

/// LogNormal log-density body with the logs precomputed: for each i,
///   z      = (log_xs[i] - mu) / sigma
///   out[i] = xs[i] <= 0 ? -inf
///          : ((-0.5 * z * z - log_xs[i]) - log_sigma) - half_log_two_pi
void LogNormalLogProbBatch(std::span<const double> xs,
                           std::span<const double> log_xs, double mu,
                           double sigma, double log_sigma,
                           double half_log_two_pi, std::span<double> out);

// ---------------------------------------------------------------------------
// Scalar reference implementations (always available; the dispatchers
// above fall back to these, and tests compare against them directly).
// ---------------------------------------------------------------------------
namespace scalar {

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
}  // namespace scalar

}  // namespace simd
}  // namespace upskill

#endif  // UPSKILL_SIMD_KERNELS_H_
