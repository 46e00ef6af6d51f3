// Degenerate inputs train and serve, or are rejected cleanly: one user
// with two actions at S = 5, one item shared by every user, an empty
// action log, and real-valued features that never vary (the Gamma shape
// and LogNormal sigma fits hit their clamps instead of dividing by a zero
// spread). Each case runs the library path the CLI's train / snapshot /
// serve / import commands take.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/difficulty.h"
#include "core/trainer.h"
#include "data/log_builder.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace upskill {
namespace {

// prefix + n, built with append (a literal + std::string temporary trips a
// false -Wrestrict positive in GCC 12).
std::string Key(const char* prefix, int n) {
  std::string key = prefix;
  key += std::to_string(n);
  return key;
}

struct Served {
  TrainResult trained;
  std::vector<double> difficulty;
  std::unique_ptr<serve::Server> server;
};

// train -> difficulty -> snapshot -> serving model -> server, asserting
// every step succeeds and the fit is finite.
void TrainAndServe(const Dataset& dataset, int levels, Served* out) {
  SkillModelConfig config;
  config.num_levels = levels;
  Result<TrainResult> trained = Trainer(config).Train(dataset);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  out->trained = std::move(trained).value();
  ASSERT_TRUE(std::isfinite(out->trained.final_log_likelihood));

  Result<std::vector<double>> difficulty = EstimateDifficultyByGeneration(
      dataset.items(), out->trained.model, DifficultyPrior::kEmpirical,
      out->trained.assignments);
  ASSERT_TRUE(difficulty.ok()) << difficulty.status().ToString();
  out->difficulty = std::move(difficulty).value();

  Result<serve::ModelSnapshot> snapshot =
      serve::MakeSnapshot(out->trained.model, dataset.items(),
                          out->difficulty);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  Result<std::shared_ptr<const serve::ServingModel>> serving =
      serve::ServingModel::FromSnapshot(std::move(snapshot).value());
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  out->server = std::make_unique<serve::Server>(serving.value());
}

// Observes `items` for `user` in order and checks every reported level is
// a valid level; returns the final one.
int ObserveAll(serve::Server& server, const std::string& user,
               const std::vector<ItemId>& items, int levels) {
  int level = 0;
  for (size_t t = 0; t < items.size(); ++t) {
    Result<serve::SessionLevel> observed =
        server.Observe(user, items[t], static_cast<int64_t>(t), true);
    EXPECT_TRUE(observed.ok()) << observed.status().ToString();
    if (!observed.ok()) return 0;
    level = observed.value().level;
    EXPECT_GE(level, 1);
    EXPECT_LE(level, levels);
  }
  return level;
}

TEST(DegenerateInputsTest, OneUserWithTwoActionsTrainsAndServesAtFiveLevels) {
  ActionLogBuilder builder;
  ASSERT_TRUE(builder.AddEvent("solo", 1, "a").ok());
  ASSERT_TRUE(builder.AddEvent("solo", 2, "b").ok());
  Result<Dataset> dataset = std::move(builder).Build();
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  Served served;
  TrainAndServe(dataset.value(), 5, &served);
  if (HasFatalFailure()) return;
  ASSERT_EQ(served.trained.assignments.size(), 1u);
  ASSERT_EQ(served.trained.assignments[0].size(), 2u);
  ObserveAll(*served.server, "solo", {0, 1}, 5);
  UpskillRecommendationOptions options;
  EXPECT_TRUE(served.server->Recommend("solo", options).ok());
}

TEST(DegenerateInputsTest, OneItemSharedBySixUsersHasDifficultyOne) {
  ActionLogBuilder builder;
  for (int u = 0; u < 6; ++u) {
    const std::string user = Key("u", u);
    ASSERT_TRUE(builder.AddEvent(user, 1, "only").ok());
    ASSERT_TRUE(builder.AddEvent(user, 2, "only").ok());
  }
  Result<Dataset> dataset = std::move(builder).Build();
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  ASSERT_EQ(dataset.value().items().num_items(), 1);

  Served served;
  TrainAndServe(dataset.value(), 3, &served);
  if (HasFatalFailure()) return;
  ASSERT_EQ(served.difficulty.size(), 1u);
  EXPECT_EQ(served.difficulty[0], 1.0);
  ObserveAll(*served.server, "u0", {0, 0, 0}, 3);
}

TEST(DegenerateInputsTest, ImportOfAnEmptyLogIsFailedPrecondition) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (Key("upskill_empty_log_", static_cast<int>(::getpid())) + ".csv"))
          .string();
  { std::ofstream out(path); }
  Result<Dataset> dataset = LoadActionLogCsv(path);
  std::filesystem::remove(path);
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kFailedPrecondition)
      << dataset.status().ToString();
}

TEST(DegenerateInputsTest, ConstantRealFeaturesTrainAndServe) {
  ActionLogBuilder builder;
  ASSERT_TRUE(builder.DeclareReal("gamma_const", DistributionKind::kGamma).ok());
  ASSERT_TRUE(
      builder.DeclareReal("lognormal_const", DistributionKind::kLogNormal)
          .ok());
  const int num_items = 8;
  for (int i = 0; i < num_items; ++i) {
    const std::vector<double> values = {2.5, 3.0};
    ASSERT_TRUE(builder.AddItem(Key("i", i), values).ok());
  }
  for (int u = 0; u < 10; ++u) {
    for (int t = 0; t < 12; ++t) {
      ASSERT_TRUE(
          builder.AddEvent(Key("u", u), t, Key("i", (u + 3 * t) % num_items))
              .ok());
    }
  }
  Result<Dataset> dataset = std::move(builder).Build();
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  Served served;
  TrainAndServe(dataset.value(), 3, &served);
  if (HasFatalFailure()) return;
  // Every item's log-probability row is finite at every level: the fits
  // stayed inside their clamps rather than collapsing to a zero spread.
  const std::vector<double> cache =
      served.trained.model.ItemLogProbCache(dataset.value().items());
  ASSERT_EQ(cache.size(), static_cast<size_t>(num_items) * 3);
  for (const double v : cache) EXPECT_TRUE(std::isfinite(v)) << v;
  ObserveAll(*served.server, "u0", {0, 3, 6, 1}, 3);
  UpskillRecommendationOptions options;
  EXPECT_TRUE(served.server->Recommend("u0", options).ok());
}

}  // namespace
}  // namespace upskill
