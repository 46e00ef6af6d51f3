#include "serve/serving_model.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "exec/backend.h"
#include "exec/map_reduce.h"
#include "exec/shard.h"

namespace upskill {
namespace serve {

namespace {

// The one ranking order: log P(i | level) descending, ties toward the
// smaller id. `level_index` is 0-based.
bool RanksBefore(const std::vector<double>& log_probs, int levels,
                 size_t level_index, ItemId a, ItemId b) {
  const size_t stride = static_cast<size_t>(levels);
  const double pa = log_probs[static_cast<size_t>(a) * stride + level_index];
  const double pb = log_probs[static_cast<size_t>(b) * stride + level_index];
  if (pa != pb) return pa > pb;
  return a < b;
}

}  // namespace

Result<std::shared_ptr<const ServingModel>> ServingModel::FromSnapshot(
    ModelSnapshot snapshot, exec::Backend* backend) {
  backend = exec::ResolveBackend(backend);
  const int levels = snapshot.config.num_levels;
  if (levels < 1) {
    return Status::InvalidArgument("snapshot has no skill levels");
  }
  if (snapshot.model.num_levels() != levels ||
      snapshot.model.num_features() != snapshot.schema.num_features()) {
    return Status::InvalidArgument("snapshot model/config shape mismatch");
  }
  if (static_cast<int>(snapshot.difficulty.size()) !=
      snapshot.items.num_items()) {
    return Status::InvalidArgument("snapshot difficulty size mismatch");
  }
  if (snapshot.has_transitions &&
      !snapshot.transitions.log_initial.empty() &&
      static_cast<int>(snapshot.transitions.log_initial.size()) != levels) {
    return Status::InvalidArgument("snapshot transition weights mismatch");
  }

  std::shared_ptr<ServingModel> model(new ServingModel());
  model->snapshot_ = std::move(snapshot);
  model->log_down_ =
      std::log(model->snapshot_.config.forgetting.drop_probability);
  model->log_probs_ =
      model->snapshot_.model.ItemLogProbCache(model->snapshot_.items, backend);

  // Counting pass: each non-NaN item's band, then the band offsets. The
  // clamp runs in double so ±inf and out-of-range difficulties cast
  // safely. `base` lists the banded items grouped by band, ids ascending.
  const std::vector<double>& difficulty = model->snapshot_.difficulty;
  std::vector<int> band(difficulty.size(), -1);
  std::vector<size_t>& band_begin = model->band_begin_;
  band_begin.assign(static_cast<size_t>(levels) + 2, 0);
  for (size_t i = 0; i < difficulty.size(); ++i) {
    if (std::isnan(difficulty[i])) continue;
    band[i] = static_cast<int>(std::clamp(std::ceil(difficulty[i]) - 1.0,
                                          0.0, static_cast<double>(levels)));
    ++band_begin[static_cast<size_t>(band[i]) + 1];
  }
  for (size_t b = 1; b < band_begin.size(); ++b) {
    band_begin[b] += band_begin[b - 1];
  }
  const size_t banded = band_begin.back();
  std::vector<ItemId> base(banded);
  std::vector<size_t> next(band_begin.begin(), band_begin.end() - 1);
  for (size_t i = 0; i < band.size(); ++i) {
    if (band[i] >= 0) {
      base[next[static_cast<size_t>(band[i])]++] = static_cast<ItemId>(i);
    }
  }

  model->banded_.resize(static_cast<size_t>(levels) * banded);
  const std::vector<double>& log_probs = model->log_probs_;
  // Per-level rankings are independent sorts (uniform cost), so the
  // level axis gets the same contiguous shard plan the batch executor
  // uses; each shard writes a disjoint slice of banded_.
  const exec::ShardPlan plan = exec::ShardPlan::Contiguous(
      static_cast<size_t>(levels),
      exec::ResolveShardCount(0, backend, static_cast<size_t>(levels)));
  exec::MapShards(backend, plan.num_shards(), [&](int shard) {
    const exec::IndexRange range = plan.range(shard);
    for (size_t s = range.begin; s < range.end; ++s) {
      ItemId* order = model->banded_.data() + s * banded;
      std::copy(base.begin(), base.end(), order);
      for (size_t b = 0; b + 1 < band_begin.size(); ++b) {
        std::sort(order + band_begin[b], order + band_begin[b + 1],
                  [&](ItemId a, ItemId c) {
                    return RanksBefore(log_probs, levels, s, a, c);
                  });
      }
    }
  });
  return std::shared_ptr<const ServingModel>(std::move(model));
}

Result<std::shared_ptr<const ServingModel>> ServingModel::FromSnapshotFile(
    const std::string& path, exec::Backend* backend) {
  Result<ModelSnapshot> snapshot = LoadSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  return FromSnapshot(std::move(snapshot).value(), backend);
}

std::span<const ItemId> ServingModel::BandItems(int level, int band) const {
  const size_t banded = band_begin_.back();
  const size_t begin = band_begin_[static_cast<size_t>(band)];
  return std::span<const ItemId>(
      banded_.data() + static_cast<size_t>(level - 1) * banded + begin,
      band_begin_[static_cast<size_t>(band) + 1] - begin);
}

Result<std::vector<UpskillRecommendation>> ServingModel::Recommend(
    int current_level, const UpskillRecommendationOptions& options) const {
  if (current_level < 1 || current_level > num_levels()) {
    return Status::OutOfRange(
        StringPrintf("level %d of %d", current_level, num_levels()));
  }
  if (options.max_results < 1) {
    return Status::InvalidArgument("max_results must be >= 1");
  }
  if (!(options.stretch > 0.0)) {
    return Status::InvalidArgument("stretch must be positive");
  }
  const int target = options.rank_by_next_level
                         ? std::min(current_level + 1, num_levels())
                         : current_level;
  const double lo = static_cast<double>(current_level);
  const double hi = lo + options.stretch;
  // Every difficulty in (lo, hi] falls in bands current_level ..
  // ceil(hi) - 1 (capped at S in double: hi may be +inf). Their heads
  // merge in rank order; the window test below is the exact predicate,
  // so items of the last band above hi are skipped, never returned.
  const int last_band = static_cast<int>(
      std::min(static_cast<double>(num_levels()), std::ceil(hi) - 1.0));
  std::vector<std::span<const ItemId>> heads;
  for (int b = current_level; b <= last_band; ++b) {
    const std::span<const ItemId> items = BandItems(target, b);
    if (!items.empty()) heads.push_back(items);
  }
  const size_t target_index = static_cast<size_t>(target - 1);
  const std::vector<double>& difficulty = snapshot_.difficulty;

  std::vector<UpskillRecommendation> picks;
  picks.reserve(static_cast<size_t>(options.max_results));
  while (!heads.empty() &&
         static_cast<int>(picks.size()) < options.max_results) {
    size_t best = 0;
    for (size_t h = 1; h < heads.size(); ++h) {
      if (RanksBefore(log_probs_, num_levels(), target_index,
                      heads[h].front(), heads[best].front())) {
        best = h;
      }
    }
    const ItemId item = heads[best].front();
    heads[best] = heads[best].subspan(1);
    if (heads[best].empty()) heads.erase(heads.begin() + best);
    const double d = difficulty[static_cast<size_t>(item)];
    if (!(d > lo && d <= hi)) continue;
    picks.push_back(UpskillRecommendation{
        item, d, ItemRow(item)[target_index]});
  }
  return picks;
}

}  // namespace serve
}  // namespace upskill
