// ServingModel: the precomputed difficulty-banded rankings and the
// windowed Recommend merge over them, checked against a brute-force walk
// of a fully sorted ranking.

#include "serve/serving_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "core/difficulty.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "serve/snapshot.h"

namespace upskill {
namespace serve {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// The band an item of difficulty `d` belongs to in an S-level model.
int BandOf(double d, int levels) {
  return static_cast<int>(std::clamp(std::ceil(d) - 1.0, 0.0,
                                     static_cast<double>(levels)));
}

// Difficulties that stress the band edges: NaN, ±inf, negatives, exact
// integers (band boundaries), their floating neighbours, values above S,
// and plain interior values.
std::vector<double> AdversarialDifficulties(int num_items, int levels,
                                            Rng& rng) {
  std::vector<double> difficulty(static_cast<size_t>(num_items));
  for (double& d : difficulty) {
    const double integer =
        static_cast<double>(rng.NextIntInRange(0, levels + 1));
    switch (rng.NextInt(8)) {
      case 0: d = kNaN; break;
      case 1: d = rng.NextBernoulli(0.5) ? kInf : -kInf; break;
      case 2: d = -1.0 - 3.0 * rng.NextDouble(); break;
      case 3: d = integer; break;
      case 4: d = std::nextafter(integer, kInf); break;
      case 5: d = std::nextafter(integer, -kInf); break;
      default: d = (levels + 2.0) * rng.NextDouble(); break;
    }
  }
  return difficulty;
}

// The unbanded reference: every item sorted by log P(i | target)
// descending (ties toward the smaller id), filtered by the window.
std::vector<UpskillRecommendation> BruteForceRecommend(
    const ServingModel& serving, int current_level,
    const UpskillRecommendationOptions& options) {
  const int levels = serving.num_levels();
  const int target = options.rank_by_next_level
                         ? std::min(current_level + 1, levels)
                         : current_level;
  const auto score = [&](ItemId item) {
    return serving.ItemRow(item)[static_cast<size_t>(target - 1)];
  };
  std::vector<ItemId> order(static_cast<size_t>(serving.num_items()));
  std::iota(order.begin(), order.end(), ItemId{0});
  std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    if (score(a) != score(b)) return score(a) > score(b);
    return a < b;
  });
  const double lo = static_cast<double>(current_level);
  const double hi = lo + options.stretch;
  std::vector<UpskillRecommendation> picks;
  for (const ItemId item : order) {
    const double d = serving.difficulty()[static_cast<size_t>(item)];
    if (!(d > lo && d <= hi)) continue;
    picks.push_back(UpskillRecommendation{item, d, score(item)});
    if (static_cast<int>(picks.size()) == options.max_results) break;
  }
  return picks;
}

class ServingModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::SyntheticConfig data_config;
    data_config.num_users = 40;
    data_config.num_items = 80;
    data_config.mean_sequence_length = 25.0;
    data_config.seed = 321;
    auto data = datagen::GenerateSynthetic(data_config);
    ASSERT_TRUE(data.ok());
    dataset_ = std::make_unique<Dataset>(std::move(data).value().dataset);

    model_ = std::make_unique<SkillModel>(Train(4));
    const SkillAssignments assignments = AssignSkills(*dataset_, *model_);
    auto difficulty = EstimateDifficultyByGeneration(
        dataset_->items(), *model_, DifficultyPrior::kEmpirical, assignments);
    ASSERT_TRUE(difficulty.ok());
    difficulty_ = std::move(difficulty).value();
    serving_ = Serve(*model_, dataset_->items(), difficulty_);
  }

  SkillModel Train(int levels) const {
    SkillModelConfig config;
    config.num_levels = levels;
    config.min_init_actions = 15;
    config.max_iterations = 6;
    auto trained = Trainer(config).Train(*dataset_);
    EXPECT_TRUE(trained.ok()) << trained.status().ToString();
    return std::move(trained).value().model;
  }

  static std::shared_ptr<const ServingModel> Serve(
      const SkillModel& model, const ItemTable& items,
      std::vector<double> difficulty) {
    auto snapshot = MakeSnapshot(model, items, std::move(difficulty));
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    auto serving = ServingModel::FromSnapshot(std::move(snapshot).value());
    EXPECT_TRUE(serving.ok()) << serving.status().ToString();
    return serving.value();
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<SkillModel> model_;
  std::vector<double> difficulty_;
  std::shared_ptr<const ServingModel> serving_;
};

TEST_F(ServingModelTest, BandsPartitionTheRatedItemsInRankOrder) {
  Rng rng(17);
  const int levels = serving_->num_levels();
  for (const std::vector<double>& difficulty :
       {difficulty_,
        AdversarialDifficulties(serving_->num_items(), levels, rng)}) {
    const auto serving = Serve(*model_, dataset_->items(), difficulty);
    for (int level = 1; level <= levels; ++level) {
      std::vector<int> seen(difficulty.size(), 0);
      for (int band = 0; band <= levels; ++band) {
        const std::span<const ItemId> items = serving->BandItems(level, band);
        for (size_t r = 0; r < items.size(); ++r) {
          const ItemId item = items[r];
          ASSERT_GE(item, 0);
          ASSERT_LT(item, serving->num_items());
          ++seen[static_cast<size_t>(item)];
          EXPECT_EQ(BandOf(difficulty[static_cast<size_t>(item)], levels),
                    band)
              << "item " << item;
          if (r == 0) continue;
          const double prev =
              serving->ItemRow(items[r - 1])[static_cast<size_t>(level - 1)];
          const double cur =
              serving->ItemRow(item)[static_cast<size_t>(level - 1)];
          // Descending score; ties toward the smaller item id.
          EXPECT_TRUE(prev > cur || (prev == cur && items[r - 1] < item))
              << "level " << level << " band " << band << " rank " << r;
        }
      }
      for (size_t i = 0; i < difficulty.size(); ++i) {
        EXPECT_EQ(seen[i], std::isnan(difficulty[i]) ? 0 : 1) << "item " << i;
      }
    }
  }
}

TEST_F(ServingModelTest, RecommendMatchesBruteForceWalk) {
  // One-item catalog: the fixture's first item alone. Tied catalog: the
  // first item's features on every item, each under its own id, so an
  // untrained model (uniform over ids) scores all items alike.
  const ItemTable& items = dataset_->items();
  ItemTable one_item(items.schema());
  ItemTable tied(items.schema());
  std::vector<double> values;
  for (int f = 0; f < items.schema().num_features(); ++f) {
    values.push_back(items.value(0, f));
  }
  ASSERT_TRUE(one_item.AddItem(values).ok());
  const int id_feature = items.schema().id_feature();
  ASSERT_GE(id_feature, 0);
  values[static_cast<size_t>(id_feature)] = -1.0;  // the new item's index
  for (int i = 0; i < items.num_items(); ++i) {
    ASSERT_TRUE(tied.AddItem(values).ok());
  }

  struct Case {
    std::string name;
    SkillModel model;
    const ItemTable* items;
    bool all_nan;
  };
  SkillModelConfig untrained_config;
  untrained_config.num_levels = 5;
  auto untrained = SkillModel::Create(items.schema(), untrained_config);
  ASSERT_TRUE(untrained.ok());
  std::vector<Case> cases;
  cases.push_back({"S=4", *model_, &items, false});
  cases.push_back({"S=1", Train(1), &items, false});
  cases.push_back({"S=7", Train(7), &items, false});
  // Every score equal: rank order is the id tie-break alone.
  cases.push_back({"tied S=5", untrained.value(), &tied, false});
  cases.push_back({"one item", *model_, &one_item, false});
  cases.push_back({"all NaN", *model_, &items, true});

  Rng rng(20240611);
  int compared = 0;
  for (const Case& c : cases) {
    const int levels = c.model.num_levels();
    for (int draw = 0; draw < 6; ++draw) {
      std::vector<double> difficulty =
          AdversarialDifficulties(c.items->num_items(), levels, rng);
      if (c.all_nan) std::fill(difficulty.begin(), difficulty.end(), kNaN);
      const auto serving = Serve(c.model, *c.items, std::move(difficulty));
      for (int level = 1; level <= levels; ++level) {
        for (const double stretch :
             {1e-9, 0.5, 1.0, 2.5, levels + 1.0, 1e300, kInf}) {
          for (const int max_results : {1, 10, 1000}) {
            for (const bool next_level : {false, true}) {
              UpskillRecommendationOptions options;
              options.stretch = stretch;
              options.max_results = max_results;
              options.rank_by_next_level = next_level;
              const auto got = serving->Recommend(level, options);
              ASSERT_TRUE(got.ok()) << got.status().ToString();
              const std::vector<UpskillRecommendation> want =
                  BruteForceRecommend(*serving, level, options);
              const std::string where =
                  c.name + " draw " + std::to_string(draw) + " level " +
                  std::to_string(level) + " stretch " +
                  std::to_string(stretch) + " max " +
                  std::to_string(max_results) + " next " +
                  std::to_string(next_level);
              ASSERT_EQ(got.value().size(), want.size()) << where;
              for (size_t k = 0; k < want.size(); ++k) {
                const UpskillRecommendation& g = got.value()[k];
                EXPECT_EQ(g.item, want[k].item) << where << " pick " << k;
                EXPECT_EQ(std::bit_cast<uint64_t>(g.difficulty),
                          std::bit_cast<uint64_t>(want[k].difficulty))
                    << where << " pick " << k;
                EXPECT_EQ(std::bit_cast<uint64_t>(g.log_prob),
                          std::bit_cast<uint64_t>(want[k].log_prob))
                    << where << " pick " << k;
              }
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 5000);
}

TEST_F(ServingModelTest, ItemRowMatchesCacheLayout) {
  const size_t levels = static_cast<size_t>(serving_->num_levels());
  for (ItemId item : {ItemId{0}, ItemId{17},
                      ItemId{serving_->num_items() - 1}}) {
    const std::span<const double> row = serving_->ItemRow(item);
    ASSERT_EQ(row.size(), levels);
    for (size_t s = 0; s < levels; ++s) {
      EXPECT_EQ(row[s],
                serving_->item_log_probs()[static_cast<size_t>(item) *
                                               levels +
                                           s]);
    }
  }
}

TEST_F(ServingModelTest, RecommendRespectsTheStretchWindow) {
  UpskillRecommendationOptions options;
  options.max_results = 1000;
  options.stretch = 0.75;
  for (int level = 1; level <= serving_->num_levels(); ++level) {
    const auto picks = serving_->Recommend(level, options);
    ASSERT_TRUE(picks.ok());
    for (const UpskillRecommendation& pick : picks.value()) {
      EXPECT_GT(pick.difficulty, static_cast<double>(level));
      EXPECT_LE(pick.difficulty, level + options.stretch);
    }
  }
}

TEST_F(ServingModelTest, RecommendHonorsMaxResults) {
  UpskillRecommendationOptions wide;
  wide.max_results = 1000;
  wide.stretch = 3.0;
  const auto all = serving_->Recommend(1, wide);
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all.value().size(), 3u);

  UpskillRecommendationOptions narrow = wide;
  narrow.max_results = 3;
  const auto top3 = serving_->Recommend(1, narrow);
  ASSERT_TRUE(top3.ok());
  ASSERT_EQ(top3.value().size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top3.value()[i].item, all.value()[i].item);
  }
}

TEST_F(ServingModelTest, RecommendValidatesInputs) {
  UpskillRecommendationOptions options;
  EXPECT_FALSE(serving_->Recommend(0, options).ok());
  EXPECT_FALSE(
      serving_->Recommend(serving_->num_levels() + 1, options).ok());
  options.max_results = -1;
  EXPECT_FALSE(serving_->Recommend(1, options).ok());
  options.max_results = 10;
  options.stretch = -0.5;
  EXPECT_FALSE(serving_->Recommend(1, options).ok());
}

TEST_F(ServingModelTest, FromSnapshotRejectsShapeMismatches) {
  auto snapshot = MakeSnapshot(*model_, dataset_->items(), difficulty_);
  ASSERT_TRUE(snapshot.ok());
  ModelSnapshot broken = std::move(snapshot).value();
  broken.difficulty.pop_back();
  EXPECT_FALSE(ServingModel::FromSnapshot(std::move(broken)).ok());
}

}  // namespace
}  // namespace serve
}  // namespace upskill
