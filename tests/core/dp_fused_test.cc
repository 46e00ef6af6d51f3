#include "core/dp.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"

namespace upskill {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Gathers the per-user n×S lattice the materialized solvers consume, the
// way the seed assignment step used to.
std::vector<double> Materialize(const std::vector<double>& item_log_probs,
                                const std::vector<int32_t>& items,
                                int levels) {
  std::vector<double> log_probs(items.size() * static_cast<size_t>(levels));
  for (size_t t = 0; t < items.size(); ++t) {
    for (int s = 0; s < levels; ++s) {
      log_probs[t * static_cast<size_t>(levels) + static_cast<size_t>(s)] =
          item_log_probs[static_cast<size_t>(items[t]) * levels + s];
    }
  }
  return log_probs;
}

struct RandomConfig {
  int levels;
  std::vector<double> item_log_probs;  // [item * S + s]
  std::vector<int32_t> items;          // sequence
  std::vector<double> log_initial;     // may be empty
  double log_stay;
  double log_up;
  std::vector<uint8_t> allow_down;     // size n - 1 (or empty for n <= 1)
  double log_down;
};

RandomConfig MakeRandomConfig(Rng& rng) {
  RandomConfig config;
  // Both sides of the fixed-width (S <= 8) / run-time-width (S >= 9)
  // boundary.
  config.levels = static_cast<int>(rng.NextIntInRange(1, 12));
  const int num_items = static_cast<int>(rng.NextIntInRange(1, 50));
  config.item_log_probs.resize(static_cast<size_t>(num_items) *
                               config.levels);
  for (double& v : config.item_log_probs) {
    // Mostly finite log-probs, occasionally -inf (zero-probability cells
    // happen with unsmoothed categorical features).
    v = rng.NextBernoulli(0.05) ? kNegInf : -10.0 * rng.NextDouble();
  }
  const size_t n = static_cast<size_t>(rng.NextIntInRange(0, 40));
  config.items.resize(n);
  for (int32_t& item : config.items) {
    item = static_cast<int32_t>(rng.NextInt(num_items));
  }
  if (rng.NextBernoulli(0.5)) {
    config.log_initial.resize(static_cast<size_t>(config.levels));
    for (double& v : config.log_initial) {
      v = rng.NextBernoulli(0.05) ? kNegInf : -5.0 * rng.NextDouble();
    }
  }
  // Sometimes zero transition costs (the plain-DP special case).
  if (rng.NextBernoulli(0.25)) {
    config.log_stay = 0.0;
    config.log_up = 0.0;
  } else {
    config.log_stay = -3.0 * rng.NextDouble();
    config.log_up = -3.0 * rng.NextDouble();
  }
  if (n > 1) {
    config.allow_down.resize(n - 1);
    for (uint8_t& flag : config.allow_down) {
      flag = rng.NextBernoulli(0.3) ? 1 : 0;
    }
  }
  config.log_down = -4.0 * rng.NextDouble();
  return config;
}

TEST(DpFusedTest, MatchesMaterializedSolverOnRandomConfigs) {
  Rng rng(20260806);
  DpScratch scratch;  // reused across trials, like the assignment engine
  for (int trial = 0; trial < 200; ++trial) {
    const RandomConfig config = MakeRandomConfig(rng);
    const std::vector<double> log_probs =
        Materialize(config.item_log_probs, config.items, config.levels);

    const MonotonePath expected = SolveMonotonePathWithTransitions(
        log_probs, config.levels, config.log_initial, config.log_stay,
        config.log_up);
    const double ll = SolveMonotonePathItems(
        config.item_log_probs, config.items, config.levels,
        config.log_initial, config.log_stay, config.log_up, scratch);
    EXPECT_EQ(expected.levels, scratch.levels) << "trial " << trial;
    // Bitwise: the fused kernel must follow the exact arithmetic order.
    EXPECT_EQ(expected.log_likelihood, ll) << "trial " << trial;
  }
}

TEST(DpFusedTest, MatchesPlainSolverWithZeroCosts) {
  Rng rng(7);
  DpScratch scratch;
  for (int trial = 0; trial < 50; ++trial) {
    const RandomConfig config = MakeRandomConfig(rng);
    const std::vector<double> log_probs =
        Materialize(config.item_log_probs, config.items, config.levels);
    const MonotonePath expected = SolveMonotonePath(log_probs, config.levels);
    const double ll =
        SolveMonotonePathItems(config.item_log_probs, config.items,
                               config.levels, {}, 0.0, 0.0, scratch);
    EXPECT_EQ(expected.levels, scratch.levels) << "trial " << trial;
    EXPECT_EQ(expected.log_likelihood, ll) << "trial " << trial;
  }
}

TEST(DpFusedTest, MatchesForgettingSolverOnRandomConfigs) {
  Rng rng(31337);
  DpScratch scratch;
  for (int trial = 0; trial < 200; ++trial) {
    const RandomConfig config = MakeRandomConfig(rng);
    const std::vector<double> log_probs =
        Materialize(config.item_log_probs, config.items, config.levels);

    const MonotonePath expected = SolveMonotonePathWithForgetting(
        log_probs, config.levels, config.log_initial, config.log_stay,
        config.log_up, config.allow_down, config.log_down);
    const double ll = SolveMonotonePathItemsWithForgetting(
        config.item_log_probs, config.items, config.levels,
        config.log_initial, config.log_stay, config.log_up,
        config.allow_down, config.log_down, scratch);
    EXPECT_EQ(expected.levels, scratch.levels) << "trial " << trial;
    EXPECT_EQ(expected.log_likelihood, ll) << "trial " << trial;
  }
}

TEST(DpFusedTest, EmptySequenceYieldsEmptyPath) {
  DpScratch scratch;
  scratch.levels.assign(3, 7);  // stale content must be cleared
  const std::vector<double> item_log_probs(4, -1.0);
  const double ll =
      SolveMonotonePathItems(item_log_probs, {}, 2, {}, -0.5, -1.5, scratch);
  EXPECT_TRUE(scratch.levels.empty());
  EXPECT_EQ(0.0, ll);
  const double forgetting_ll = SolveMonotonePathItemsWithForgetting(
      item_log_probs, {}, 2, {}, -0.5, -1.5, {}, -2.0, scratch);
  EXPECT_TRUE(scratch.levels.empty());
  EXPECT_EQ(0.0, forgetting_ll);
}

// Final best row of the materialized recurrence (Equation 4 with the
// stay/up/down costs), written out plainly in the operation order of
// SolveMonotonePathWithForgetting: stay (free at the top), up, then down.
// `allow_down` empty means no down-edges.
std::vector<double> ReferenceFinalRow(std::span<const double> log_probs,
                                      int levels,
                                      std::span<const double> log_initial,
                                      double log_stay, double log_up,
                                      std::span<const uint8_t> allow_down,
                                      double log_down) {
  const size_t width = static_cast<size_t>(levels);
  const size_t n = log_probs.size() / width;
  std::vector<double> prev(width);
  for (size_t s = 0; s < width; ++s) {
    prev[s] = log_probs[s] + (log_initial.empty() ? 0.0 : log_initial[s]);
  }
  std::vector<double> curr(width);
  for (size_t t = 1; t < n; ++t) {
    for (size_t s = 0; s < width; ++s) {
      double incoming = prev[s] + ((s + 1 < width) ? log_stay : 0.0);
      if (s > 0 && prev[s - 1] + log_up > incoming) {
        incoming = prev[s - 1] + log_up;
      }
      if (!allow_down.empty() && allow_down[t - 1] != 0 && s + 1 < width &&
          prev[s + 1] + log_down > incoming) {
        incoming = prev[s + 1] + log_down;
      }
      curr[s] = incoming + log_probs[t * width + s];
    }
    prev.swap(curr);
  }
  return prev;
}

// Bit patterns, so -0.0 vs +0.0 and -inf compare exactly.
std::vector<uint64_t> Bits(std::span<const double> values) {
  std::vector<uint64_t> bits;
  for (const double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

// Adversarial value families for the width sweep.
enum class Family { kFinite, kNegInfRows, kExactTies, kSignedZeros };

double Draw(Family family, Rng& rng) {
  switch (family) {
    case Family::kFinite:
      return -10.0 * rng.NextDouble();
    case Family::kNegInfRows:
      return rng.NextBernoulli(0.3) ? kNegInf : -4.0 * rng.NextDouble();
    case Family::kExactTies:
      // Small integers: stay, up and down candidates tie exactly.
      return -static_cast<double>(rng.NextInt(3));
    case Family::kSignedZeros:
      return rng.NextBernoulli(0.5) ? -0.0 : (rng.NextBernoulli(0.5) ? 0.0
                                                                      : -1.0);
  }
  return 0.0;
}

// Every width S = 1..12 on both sides of the fixed-width / run-time-width
// boundary, every value family, plain / transition-weighted / forgetting
// with mixed down-edges. On every prefix:
//   - the streaming column equals the materialized best row bitwise;
//   - the item-indexed batch kernel's levels and log-likelihood equal the
//     materialized solver's;
//   - the batch log-likelihood is the streamed column's maximum and the
//     batch tail level is MonotoneForwardLevel of the column.
TEST(DpFusedTest, WidthSweepStreamingColumnEqualsBatchBestRowBitwise) {
  Rng rng(4242);
  DpScratch scratch;
  for (int levels = 1; levels <= 12; ++levels) {
    const size_t width = static_cast<size_t>(levels);
    for (const Family family : {Family::kFinite, Family::kNegInfRows,
                                Family::kExactTies, Family::kSignedZeros}) {
      for (const int mode : {0, 1, 2}) {  // plain, weighted, forgetting
        const std::string where =
            "S=" + std::to_string(levels) + " family=" +
            std::to_string(static_cast<int>(family)) + " mode=" +
            std::to_string(mode);
        const int num_items = 6;
        std::vector<double> cache(static_cast<size_t>(num_items) * width);
        for (double& v : cache) v = Draw(family, rng);
        if (family == Family::kNegInfRows) {
          // One item impossible at every level.
          for (size_t s = 0; s < width; ++s) cache[s] = kNegInf;
        }
        std::vector<double> log_initial;
        double log_stay = 0.0;
        double log_up = 0.0;
        if (mode > 0) {
          log_initial.resize(width);
          for (double& v : log_initial) v = Draw(family, rng);
          if (family == Family::kFinite) {
            log_stay = -0.25 - rng.NextDouble();
            log_up = -0.25 - 2.0 * rng.NextDouble();
          } else if (family == Family::kSignedZeros) {
            log_stay = -0.0;
            log_up = -0.0;
          } else {
            log_stay = -1.0;
            log_up = -2.0;
          }
        }
        // Down ties up on the integer families, so the order in which
        // the two edges are checked decides the backpointer.
        const double log_down = family == Family::kFinite ? -1.5 : log_up;
        const bool forgetting = mode == 2;

        std::vector<int32_t> items;
        std::vector<uint8_t> allow_down;
        std::vector<double> column(width);
        std::vector<double> next(width);
        for (int t = 0; t < 30; ++t) {
          const int32_t item = static_cast<int32_t>(rng.NextInt(num_items));
          const std::span<const double> row(
              cache.data() + static_cast<size_t>(item) * width, width);
          if (t == 0) {
            MonotoneForwardStart(row, log_initial, column);
          } else {
            const bool down = forgetting && rng.NextBernoulli(0.5);
            allow_down.push_back(down ? 1 : 0);
            MonotoneForwardStep(column, row, log_stay, log_up, down,
                                log_down, next);
            column.swap(next);
          }
          items.push_back(item);

          const std::vector<double> lattice =
              Materialize(cache, items, levels);
          const std::vector<uint8_t> no_down;
          ASSERT_EQ(Bits(ReferenceFinalRow(
                        lattice, levels, log_initial, log_stay, log_up,
                        forgetting ? allow_down : no_down, log_down)),
                    Bits(column))
              << where << " t=" << t;

          const MonotonePath expected =
              forgetting
                  ? SolveMonotonePathWithForgetting(lattice, levels,
                                                    log_initial, log_stay,
                                                    log_up, allow_down,
                                                    log_down)
                  : SolveMonotonePathWithTransitions(
                        lattice, levels, log_initial, log_stay, log_up);
          const double ll =
              forgetting
                  ? SolveMonotonePathItemsWithForgetting(
                        cache, items, levels, log_initial, log_stay, log_up,
                        allow_down, log_down, scratch)
                  : SolveMonotonePathItems(cache, items, levels,
                                           log_initial, log_stay, log_up,
                                           scratch);
          ASSERT_EQ(expected.levels, scratch.levels) << where << " t=" << t;
          ASSERT_EQ(std::bit_cast<uint64_t>(expected.log_likelihood),
                    std::bit_cast<uint64_t>(ll))
              << where << " t=" << t;
          const int tail = MonotoneForwardLevel(column);
          ASSERT_EQ(tail, scratch.levels.back()) << where << " t=" << t;
          ASSERT_EQ(std::bit_cast<uint64_t>(column[tail - 1]),
                    std::bit_cast<uint64_t>(ll))
              << where << " t=" << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace upskill
