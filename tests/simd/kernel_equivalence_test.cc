// Backend equivalence for the SIMD kernel layer: every dispatched kernel
// must match the scalar reference bitwise on adversarial inputs —
// non-integral and out-of-range lookup keys, NaN/inf lanes, -inf table
// entries — across every batch size that exercises full vector blocks,
// tails, and the empty span. The same guarantee is then checked one layer
// up: the four Distribution kinds are swept under ForceScalarForTest(on/off)
// and compared bitwise.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "dist/categorical.h"
#include "dist/gamma.h"
#include "dist/lognormal.h"
#include "dist/poisson.h"
#include "simd/kernels.h"
#include "simd/simd.h"

namespace upskill {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Bitwise double comparison (distinguishes -0.0 from 0.0 and treats two
// NaNs with the same payload as equal, which operator== cannot).
::testing::AssertionResult BitEq(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bit patterns 0x" << std::hex
         << std::bit_cast<uint64_t>(a) << " vs 0x"
         << std::bit_cast<uint64_t>(b) << ")";
}

void ExpectBitEqual(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(BitEq(a[i], b[i])) << "lane " << i;
  }
}

// Sizes chosen to cover: empty, below one vector, exactly one 4-wide and
// 8-wide block, block + tail, and many blocks.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 31, 100, 257};

class KernelEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ForceScalarForTest(false); }

  std::mt19937_64 rng_{0x5eed5eedULL};

  // Lookup keys: mostly valid small integers, salted with every way a lane
  // can be invalid or overflow the table.
  std::vector<double> MakeKeys(size_t n, size_t table_size) {
    std::vector<double> xs(n);
    std::uniform_int_distribution<int> valid(
        0, static_cast<int>(table_size) - 1);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (size_t i = 0; i < n; ++i) {
      switch (i % 8) {
        case 6:
          xs[i] = static_cast<double>(valid(rng_)) + unit(rng_);  // fractional
          break;
        case 5:
          xs[i] = -static_cast<double>(valid(rng_)) - 1.0;  // negative
          break;
        case 4:
          xs[i] = static_cast<double>(table_size + (i % 5));  // overflow
          break;
        case 3:
          xs[i] = (i % 2) ? std::numeric_limits<double>::quiet_NaN()
                          : std::numeric_limits<double>::infinity();
          break;
        default:
          xs[i] = static_cast<double>(valid(rng_));
      }
    }
    return xs;
  }

  // Positive reals across many magnitudes, salted with the non-support
  // cases (zero, negative, NaN, inf).
  std::vector<double> MakePositives(size_t n) {
    std::vector<double> xs(n);
    std::uniform_real_distribution<double> log_mag(-8.0, 8.0);
    for (size_t i = 0; i < n; ++i) {
      switch (i % 9) {
        case 8:
          xs[i] = 0.0;
          break;
        case 7:
          xs[i] = -std::exp(log_mag(rng_));
          break;
        case 6:
          xs[i] = (i % 2) ? std::numeric_limits<double>::quiet_NaN()
                          : std::numeric_limits<double>::infinity();
          break;
        default:
          xs[i] = std::exp(log_mag(rng_));
      }
    }
    return xs;
  }

  std::vector<double> LogsOf(std::span<const double> xs) {
    std::vector<double> logs(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
      logs[i] = xs[i] > 0.0 ? std::log(xs[i]) : 0.0;
    }
    return logs;
  }
};

TEST_F(KernelEquivalenceTest, LookupMatchesScalarBitwise) {
  std::vector<double> table(32);
  std::uniform_real_distribution<double> entry(-30.0, 0.0);
  for (double& t : table) t = entry(rng_);
  table[3] = kNegInf;  // a -inf table entry must gather through unchanged
  for (size_t n : kSizes) {
    const std::vector<double> xs = MakeKeys(n, table.size());
    std::vector<double> got(n, 42.0);
    std::vector<double> want(n, -42.0);
    bool got_overflow = false;
    bool want_overflow = false;
    simd::LookupLogProbBatch(xs, table, got, &got_overflow);
    simd::scalar::LookupLogProbBatch(xs, table, want, &want_overflow);
    ExpectBitEqual(got, want);
    EXPECT_EQ(got_overflow, want_overflow) << "n=" << n;
    // The overflow flag must fire iff an exact integer >= table.size()
    // exists (never for fractional/negative/NaN lanes).
    bool expect_overflow = false;
    for (double x : xs) {
      expect_overflow |= std::trunc(x) == x && x >= 0.0 && std::isfinite(x) &&
                         x >= static_cast<double>(table.size());
    }
    EXPECT_EQ(want_overflow, expect_overflow) << "n=" << n;
  }
  // Null overflow pointer is allowed.
  const std::vector<double> xs = MakeKeys(64, table.size());
  std::vector<double> out(64);
  simd::LookupLogProbBatch(xs, table, out, nullptr);
}

TEST_F(KernelEquivalenceTest, GammaKernelMatchesScalarBitwise) {
  const double shape = 2.7;
  const double scale = 0.6;
  const double log_gamma_shape = std::lgamma(shape);
  const double shape_log_scale = shape * std::log(scale);
  for (size_t n : kSizes) {
    const std::vector<double> xs = MakePositives(n);
    const std::vector<double> logs = LogsOf(xs);
    std::vector<double> got(n), want(n);
    simd::GammaLogProbBatch(xs, logs, shape - 1.0, scale, log_gamma_shape,
                            shape_log_scale, got);
    simd::scalar::GammaLogProbBatch(xs, logs, shape - 1.0, scale,
                                    log_gamma_shape, shape_log_scale, want);
    ExpectBitEqual(got, want);
  }
}

TEST_F(KernelEquivalenceTest, LogNormalKernelMatchesScalarBitwise) {
  const double mu = 1.3;
  const double sigma = 0.8;
  const double log_sigma = std::log(sigma);
  const double half_log_two_pi = 0.5 * std::log(2.0 * M_PI);
  for (size_t n : kSizes) {
    const std::vector<double> xs = MakePositives(n);
    const std::vector<double> logs = LogsOf(xs);
    std::vector<double> got(n), want(n);
    simd::LogNormalLogProbBatch(xs, logs, mu, sigma, log_sigma,
                                half_log_two_pi, got);
    simd::scalar::LogNormalLogProbBatch(xs, logs, mu, sigma, log_sigma,
                                        half_log_two_pi, want);
    ExpectBitEqual(got, want);
  }
}

// ---------------------------------------------------------------------------
// One layer up: distributions under a backend sweep.
// ---------------------------------------------------------------------------

TEST_F(KernelEquivalenceTest, DistributionBatchesMatchAcrossBackends) {
  Poisson poisson(3.7);
  Gamma gamma(2.2, 0.9);
  LogNormal lognormal(0.4, 1.1);
  Categorical categorical(16, 0.01);
  {
    std::vector<double> probs(16, 0.0);
    double total = 0.0;
    std::uniform_real_distribution<double> unit(0.01, 1.0);
    for (double& p : probs) total += (p = unit(rng_));
    for (double& p : probs) p /= total;
    probs[5] = probs[5] + probs[7];
    probs[7] = 0.0;  // a zero-probability category -> -inf log table entry
    ASSERT_TRUE(categorical.SetProbabilities(probs).ok());
  }
  const Distribution* dists[] = {&poisson, &gamma, &lognormal, &categorical};
  for (const Distribution* dist : dists) {
    for (size_t n : kSizes) {
      std::vector<double> xs;
      if (dist->kind() == DistributionKind::kGamma ||
          dist->kind() == DistributionKind::kLogNormal) {
        xs = MakePositives(n);
      } else {
        xs = MakeKeys(n, 16);
      }
      std::vector<double> vec_out(n), scalar_out(n), single(n);
      simd::ForceScalarForTest(false);
      dist->LogProbBatch(xs, vec_out);
      simd::ForceScalarForTest(true);
      dist->LogProbBatch(xs, scalar_out);
      simd::ForceScalarForTest(false);
      ExpectBitEqual(vec_out, scalar_out);
      // And both must equal the one-at-a-time virtual LogProb for every
      // input in the comparable domain. NaN is excluded by contract: the
      // batch kernels' support predicate sends NaN to -inf on every
      // backend, while the scalar LogProb propagates it.
      for (size_t i = 0; i < n; ++i) {
        single[i] = std::isnan(xs[i]) ? vec_out[i] : dist->LogProb(xs[i]);
      }
      ExpectBitEqual(vec_out, single);
    }
  }
}

TEST_F(KernelEquivalenceTest, BackendSwitchIsObservable) {
  // Whatever the hardware, forcing scalar must stick; restoring must
  // return to the compile/runtime-detected choice.
  const simd::Backend detected = simd::ActiveBackend();
  simd::ForceScalarForTest(true);
  EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  EXPECT_FALSE(simd::VectorEnabled());
  EXPECT_STREQ(simd::BackendName(), "scalar");
  simd::ForceScalarForTest(false);
  EXPECT_EQ(simd::ActiveBackend(), detected);
}

}  // namespace
}  // namespace upskill
