#include "core/dp.h"

#include <limits>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace upskill {

MonotonePath SolveMonotonePath(std::span<const double> log_probs,
                               int num_levels) {
  return SolveMonotonePathWithTransitions(log_probs, num_levels,
                                          /*log_initial=*/{},
                                          /*log_stay=*/0.0, /*log_up=*/0.0);
}

MonotonePath SolveMonotonePathWithTransitions(
    std::span<const double> log_probs, int num_levels,
    std::span<const double> log_initial, double log_stay, double log_up) {
  UPSKILL_CHECK(num_levels >= 1);
  UPSKILL_CHECK(log_initial.empty() ||
                log_initial.size() == static_cast<size_t>(num_levels));
  MonotonePath result;
  if (log_probs.empty()) return result;
  UPSKILL_CHECK(log_probs.size() % static_cast<size_t>(num_levels) == 0);
  const size_t n = log_probs.size() / static_cast<size_t>(num_levels);
  const size_t levels = static_cast<size_t>(num_levels);

  // best[t * levels + s0] = L(t+1, s0+1); from[...] = 1 when the optimal
  // predecessor is one level below (the "improve" edge), 0 for "stay".
  std::vector<double> best(n * levels);
  std::vector<uint8_t> from(n * levels, 0);

  for (size_t s = 0; s < levels; ++s) {
    best[s] = log_probs[s] + (log_initial.empty() ? 0.0 : log_initial[s]);
  }
  for (size_t t = 1; t < n; ++t) {
    for (size_t s = 0; s < levels; ++s) {
      // Staying at the top level is the only move there, so it is free.
      const double stay_cost = (s + 1 < levels) ? log_stay : 0.0;
      double incoming = best[(t - 1) * levels + s] + stay_cost;
      uint8_t step = 0;
      if (s > 0) {
        // Strict improvement required so ties resolve to "stay", which
        // keeps the path at the lowest attainable level.
        const double up = best[(t - 1) * levels + (s - 1)] + log_up;
        if (up > incoming) {
          incoming = up;
          step = 1;
        }
      }
      best[t * levels + s] = incoming + log_probs[t * levels + s];
      from[t * levels + s] = step;
    }
  }

  // Final level: argmax, ties to the lowest level.
  size_t level = 0;
  double best_ll = best[(n - 1) * levels];
  for (size_t s = 1; s < levels; ++s) {
    const double candidate = best[(n - 1) * levels + s];
    if (candidate > best_ll) {
      best_ll = candidate;
      level = s;
    }
  }

  result.levels.resize(n);
  result.log_likelihood = best_ll;
  for (size_t t = n; t-- > 0;) {
    result.levels[t] = static_cast<int>(level) + 1;
    if (t > 0 && from[t * levels + level]) --level;
  }
  return result;
}

MonotonePath SolveMonotonePathWithForgetting(
    std::span<const double> log_probs, int num_levels,
    std::span<const double> log_initial, double log_stay, double log_up,
    std::span<const uint8_t> allow_down, double log_down) {
  UPSKILL_CHECK(num_levels >= 1);
  UPSKILL_CHECK(log_initial.empty() ||
                log_initial.size() == static_cast<size_t>(num_levels));
  MonotonePath result;
  if (log_probs.empty()) return result;
  UPSKILL_CHECK(log_probs.size() % static_cast<size_t>(num_levels) == 0);
  const size_t n = log_probs.size() / static_cast<size_t>(num_levels);
  UPSKILL_CHECK(allow_down.size() == n - 1);
  const size_t levels = static_cast<size_t>(num_levels);

  std::vector<double> best(n * levels);
  // Predecessor offset relative to the current level: -1 (came from
  // below, "up" move), 0 ("stay"), +1 (came from above, "forget" move).
  std::vector<int8_t> from(n * levels, 0);

  for (size_t s = 0; s < levels; ++s) {
    best[s] = log_probs[s] + (log_initial.empty() ? 0.0 : log_initial[s]);
  }
  for (size_t t = 1; t < n; ++t) {
    for (size_t s = 0; s < levels; ++s) {
      const double stay_cost = (s + 1 < levels) ? log_stay : 0.0;
      double incoming = best[(t - 1) * levels + s] + stay_cost;
      int8_t step = 0;
      if (s > 0) {
        const double up = best[(t - 1) * levels + (s - 1)] + log_up;
        if (up > incoming) {
          incoming = up;
          step = -1;
        }
      }
      if (s + 1 < levels && allow_down[t - 1]) {
        const double down = best[(t - 1) * levels + (s + 1)] + log_down;
        if (down > incoming) {
          incoming = down;
          step = 1;
        }
      }
      best[t * levels + s] = incoming + log_probs[t * levels + s];
      from[t * levels + s] = step;
    }
  }

  size_t level = 0;
  double best_ll = best[(n - 1) * levels];
  for (size_t s = 1; s < levels; ++s) {
    const double candidate = best[(n - 1) * levels + s];
    if (candidate > best_ll) {
      best_ll = candidate;
      level = s;
    }
  }

  result.levels.resize(n);
  result.log_likelihood = best_ll;
  for (size_t t = n; t-- > 0;) {
    result.levels[t] = static_cast<int>(level) + 1;
    if (t > 0) {
      level = static_cast<size_t>(static_cast<int>(level) +
                                  from[t * levels + level]);
    }
  }
  return result;
}

namespace {

// Backtracks through `from` (0 = stay, 1 = from below, 2 = from above)
// starting at the argmax of the final row; ties prefer the lower level.
// Shared by both item-indexed kernels.
double BacktrackFused(const double* final_row, const uint8_t* from, size_t n,
                      size_t levels, std::vector<int>* out) {
  size_t level = 0;
  double best_ll = final_row[0];
  for (size_t s = 1; s < levels; ++s) {
    if (final_row[s] > best_ll) {
      best_ll = final_row[s];
      level = s;
    }
  }
  for (size_t t = n; t-- > 0;) {
    (*out)[t] = static_cast<int>(level) + 1;
    if (t > 0) {
      const uint8_t step = from[t * levels + level];
      if (step == 1) {
        --level;
      } else if (step == 2) {
        ++level;
      }
    }
  }
  return best_ll;
}

// One row of Equation 4's recurrence, shared by every item-indexed kernel
// and by the streaming step. The bottom and top levels are peeled so the
// interior carries no stay-cost or boundary branch; each move choice is a
// select (the comparison outcome is data-dependent and would otherwise
// mispredict roughly half the time). Strict > keeps ties on "stay", which
// keeps the path at the lowest attainable level; staying at the top level
// is the only move there, so it is free (+ 0.0, which also turns a -0.0
// into +0.0 exactly as the materialized solver does); the down-edge is
// checked after stay/up. Same operations in the same order as
// SolveMonotonePathWithTransitions / WithForgetting, so values and
// backpointers are bitwise identical to them.
//
// kWidth > 0 fixes S at compile time: the loop unrolls and a caller's
// local rows stay in registers. kWidth == 0 runs the same loop with S read
// from `levels` at run time (correct for any S, not tuned). kDown opens
// the forgetting down-edge for this transition; `from` receives the
// backpointers when kTrack is set and is not touched otherwise.
template <int kWidth, bool kDown, bool kTrack>
inline void RowUpdate(const double* prev, const double* row, size_t levels,
                      double log_stay, double log_up, double log_down,
                      double* curr, uint8_t* from) {
  const size_t width = kWidth > 0 ? static_cast<size_t>(kWidth) : levels;
  {
    double incoming = prev[0] + (width > 1 ? log_stay : 0.0);
    uint8_t step = 0;
    if (kDown && width > 1) {
      const double down = prev[1] + log_down;
      const bool down_wins = down > incoming;
      incoming = down_wins ? down : incoming;
      step = down_wins ? 2 : step;
    }
    curr[0] = incoming + row[0];
    if (kTrack) from[0] = step;
  }
#pragma GCC unroll 8
  for (size_t s = 1; s + 1 < width; ++s) {
    const double stay = prev[s] + log_stay;
    const double up = prev[s - 1] + log_up;
    const bool up_wins = up > stay;
    double incoming = up_wins ? up : stay;
    uint8_t step = static_cast<uint8_t>(up_wins);
    if (kDown) {
      const double down = prev[s + 1] + log_down;
      const bool down_wins = down > incoming;
      incoming = down_wins ? down : incoming;
      step = down_wins ? 2 : step;
    }
    curr[s] = incoming + row[s];
    if (kTrack) from[s] = step;
  }
  if (width > 1) {
    const size_t s = width - 1;
    const double stay = prev[s] + 0.0;
    const double up = prev[s - 1] + log_up;
    const bool up_wins = up > stay;
    curr[s] = (up_wins ? up : stay) + row[s];
    if (kTrack) from[s] = static_cast<uint8_t>(up_wins);
  }
}

// Forward pass with backpointers over the item rows, then the backtrack.
// A fixed width keeps both rows in local arrays that the unrolled row
// update holds in registers (no per-row call, no arena round trip);
// kWidth == 0 ping-pongs the scratch arena's two rows. Without
// kForgetting `allow_down` is ignored.
template <int kWidth, bool kForgetting>
double SolveItems(const double* item_log_probs,
                  std::span<const int32_t> items, size_t levels,
                  std::span<const double> log_initial, double log_stay,
                  double log_up, std::span<const uint8_t> allow_down,
                  double log_down, DpScratch& scratch) {
  const size_t width = kWidth > 0 ? static_cast<size_t>(kWidth) : levels;
  const size_t n = items.size();
  scratch.from.resize(n * width);
  double local_rows[2 * (kWidth > 0 ? kWidth : 1)] = {};
  double* prev = local_rows;
  if constexpr (kWidth == 0) {
    scratch.best_rows.resize(2 * width);
    prev = scratch.best_rows.data();
  }
  double* curr = prev + width;

  const double* first = item_log_probs + static_cast<size_t>(items[0]) * width;
  for (size_t s = 0; s < width; ++s) {
    prev[s] = first[s] + (log_initial.empty() ? 0.0 : log_initial[s]);
  }
  for (size_t t = 1; t < n; ++t) {
    const double* row = item_log_probs + static_cast<size_t>(items[t]) * width;
    uint8_t* from_row = scratch.from.data() + t * width;
    if (kForgetting && allow_down[t - 1] != 0) {
      RowUpdate<kWidth, true, true>(prev, row, width, log_stay, log_up,
                                    log_down, curr, from_row);
    } else {
      RowUpdate<kWidth, false, true>(prev, row, width, log_stay, log_up,
                                     log_down, curr, from_row);
    }
    if constexpr (kWidth > 0) {
      for (size_t s = 0; s < width; ++s) prev[s] = curr[s];
    } else {
      std::swap(prev, curr);
    }
  }
  return BacktrackFused(prev, scratch.from.data(), n, width, &scratch.levels);
}

// Calls fn(std::integral_constant<int, S>{}) for a row width S in [1, 8],
// which covers the paper's operating range (S = 5; Fig. 3 sweeps 2..8),
// and fn(std::integral_constant<int, 0>{}) (the runtime-width body) for
// wider rows (DESIGN.md §8, supported S range).
template <typename Fn>
decltype(auto) WithRowWidth(size_t levels, Fn&& fn) {
  switch (levels) {
    case 1: return fn(std::integral_constant<int, 1>{});
    case 2: return fn(std::integral_constant<int, 2>{});
    case 3: return fn(std::integral_constant<int, 3>{});
    case 4: return fn(std::integral_constant<int, 4>{});
    case 5: return fn(std::integral_constant<int, 5>{});
    case 6: return fn(std::integral_constant<int, 6>{});
    case 7: return fn(std::integral_constant<int, 7>{});
    case 8: return fn(std::integral_constant<int, 8>{});
    default: return fn(std::integral_constant<int, 0>{});
  }
}

// Validates the shapes and sends the row width to its instantiation.
template <bool kForgetting>
double SolveItemsDispatch(std::span<const double> item_log_probs,
                          std::span<const int32_t> items, int num_levels,
                          std::span<const double> log_initial, double log_stay,
                          double log_up, std::span<const uint8_t> allow_down,
                          double log_down, DpScratch& scratch) {
  UPSKILL_CHECK(num_levels >= 1);
  UPSKILL_CHECK(log_initial.empty() ||
                log_initial.size() == static_cast<size_t>(num_levels));
  const size_t n = items.size();
  scratch.levels.resize(n);
  if (n == 0) return 0.0;
  if (kForgetting) UPSKILL_CHECK(allow_down.size() == n - 1);
  const size_t levels = static_cast<size_t>(num_levels);
  return WithRowWidth(levels, [&](auto width) {
    return SolveItems<decltype(width)::value, kForgetting>(
        item_log_probs.data(), items, levels, log_initial, log_stay, log_up,
        allow_down, log_down, scratch);
  });
}

}  // namespace

double SolveMonotonePathItems(std::span<const double> item_log_probs,
                              std::span<const int32_t> items, int num_levels,
                              std::span<const double> log_initial,
                              double log_stay, double log_up,
                              DpScratch& scratch) {
  return SolveItemsDispatch<false>(item_log_probs, items, num_levels,
                                   log_initial, log_stay, log_up,
                                   /*allow_down=*/{}, /*log_down=*/0.0,
                                   scratch);
}

double SolveMonotonePathItemsWithForgetting(
    std::span<const double> item_log_probs, std::span<const int32_t> items,
    int num_levels, std::span<const double> log_initial, double log_stay,
    double log_up, std::span<const uint8_t> allow_down, double log_down,
    DpScratch& scratch) {
  return SolveItemsDispatch<true>(item_log_probs, items, num_levels,
                                  log_initial, log_stay, log_up, allow_down,
                                  log_down, scratch);
}

void MonotoneForwardStart(std::span<const double> item_row,
                          std::span<const double> log_initial,
                          std::span<double> column) {
  const size_t levels = column.size();
  UPSKILL_CHECK(levels >= 1);
  UPSKILL_CHECK(item_row.size() >= levels);
  UPSKILL_CHECK(log_initial.empty() || log_initial.size() == levels);
  for (size_t s = 0; s < levels; ++s) {
    column[s] = item_row[s] + (log_initial.empty() ? 0.0 : log_initial[s]);
  }
}

void MonotoneForwardStep(std::span<const double> prev_column,
                         std::span<const double> item_row, double log_stay,
                         double log_up, bool allow_down, double log_down,
                         std::span<double> next_column) {
  const size_t levels = prev_column.size();
  UPSKILL_CHECK(levels >= 1);
  UPSKILL_CHECK(item_row.size() >= levels);
  UPSKILL_CHECK(next_column.size() == levels);
  UPSKILL_CHECK(next_column.data() != prev_column.data());
  // The same row update as the item-indexed kernels, so the column stays
  // bitwise equal to the batch best-row.
  const double* prev = prev_column.data();
  const double* row = item_row.data();
  double* curr = next_column.data();
  WithRowWidth(levels, [&](auto width) {
    constexpr int kWidth = decltype(width)::value;
    if (allow_down) {
      RowUpdate<kWidth, true, false>(prev, row, levels, log_stay, log_up,
                                     log_down, curr, /*from=*/nullptr);
    } else {
      RowUpdate<kWidth, false, false>(prev, row, levels, log_stay, log_up,
                                      log_down, curr, /*from=*/nullptr);
    }
  });
}

int MonotoneForwardLevel(std::span<const double> column) {
  UPSKILL_CHECK(!column.empty());
  size_t level = 0;
  double best = column[0];
  for (size_t s = 1; s < column.size(); ++s) {
    if (column[s] > best) {
      best = column[s];
      level = s;
    }
  }
  return static_cast<int>(level) + 1;
}

}  // namespace upskill
