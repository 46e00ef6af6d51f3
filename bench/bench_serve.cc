// Serving-path benchmarks (google-benchmark): snapshot save/load, the
// ServingModel precomputation, the O(S) streaming observe step, the
// banded-ranking recommend per session level, and the headline
// BM_ServeThroughput — a 90% observe / 10% recommend request mix over
// 100k live sessions executed through Server::ExecuteBatch on an
// 8-thread pool, the workload the PR's >= 100k req/s acceptance bar is
// measured on (BENCH_PR3.json).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/rng.h"
#include "core/difficulty.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "serve/snapshot.h"

namespace upskill {
namespace serve {
namespace {

std::string TempSnapshotPath() {
  return "/tmp/upskill_bench_" + std::to_string(::getpid()) + ".snap";
}

// Shared fixture: a trained model over a mid-sized item universe, packaged
// as a snapshot and a ready ServingModel.
const ModelSnapshot& BenchSnapshot() {
  static const ModelSnapshot* snapshot = [] {
    datagen::SyntheticConfig data_config;
    data_config.num_users = 400;
    data_config.num_items = 2000;
    data_config.mean_sequence_length = 40.0;
    auto data = datagen::GenerateSynthetic(data_config);
    const Dataset& dataset = data.value().dataset;

    SkillModelConfig config;
    config.num_levels = 5;
    config.min_init_actions = 25;
    config.max_iterations = 8;
    auto trained = Trainer(config).Train(dataset);
    const SkillAssignments assignments =
        AssignSkills(dataset, trained.value().model);
    auto difficulty = EstimateDifficultyByGeneration(
        dataset.items(), trained.value().model, DifficultyPrior::kEmpirical,
        assignments);
    const TransitionWeights transitions = FitTransitionWeights(
        assignments, config.num_levels, config.smoothing);
    auto snapshot =
        MakeSnapshot(trained.value().model, dataset.items(),
                     std::move(difficulty).value(), &transitions);
    return new ModelSnapshot(std::move(snapshot).value());
  }();
  return *snapshot;
}

std::shared_ptr<const ServingModel> BenchServingModel() {
  static const std::shared_ptr<const ServingModel>* model = [] {
    auto result = ServingModel::FromSnapshot(BenchSnapshot());
    return new std::shared_ptr<const ServingModel>(result.value());
  }();
  return *model;
}

void BM_SnapshotSave(benchmark::State& state) {
  const ModelSnapshot& snapshot = BenchSnapshot();
  const std::string path = TempSnapshotPath();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SaveSnapshot(snapshot, path));
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotSave);

void BM_SnapshotLoad(benchmark::State& state) {
  const std::string path = TempSnapshotPath();
  if (!SaveSnapshot(BenchSnapshot(), path).ok()) {
    state.SkipWithError("SaveSnapshot failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(LoadSnapshot(path));
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotLoad);

// The swap-time cost: full log-prob matrix + per-level banded rankings.
void BM_ServingModelBuild(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::unique_ptr<exec::Backend> pool;
  if (threads > 1) pool = std::make_unique<exec::ThreadPoolBackend>(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ServingModel::FromSnapshot(BenchSnapshot(), pool.get()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          BenchSnapshot().items.num_items());
}
BENCHMARK(BM_ServingModelBuild)->Arg(1)->Arg(8);

// One streaming observe: an O(S) column update behind one shard lock.
void BM_ObserveAction(benchmark::State& state) {
  Server server(BenchServingModel());
  Rng rng(7);
  const int num_items = BenchServingModel()->num_items();
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Observe(
        "bench-user", static_cast<ItemId>(rng.NextInt(num_items)), 0,
        false));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ObserveAction);

// One recommend for a session at level Arg(0) of S = 5: 1 (lowest) and
// 3 (middle) merge one difficulty band down to a full shortlist; 5 (top)
// opens a stretch window above every catalog item, so the band it
// visits is empty and the request returns no picks. The "picks" counter
// reports the shortlist length.
void BM_RecommendServing(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  const std::shared_ptr<const ServingModel> model = BenchServingModel();
  Server server(model);
  // Drive the session to `level` with the item most typical of it: the
  // largest log P(i | level) margin over every other level.
  ItemId typical = 0;
  double best_margin = -HUGE_VAL;
  for (ItemId item = 0; item < model->num_items(); ++item) {
    const std::span<const double> row = model->ItemRow(item);
    double margin = HUGE_VAL;
    for (int s = 1; s <= model->num_levels(); ++s) {
      if (s != level) margin = std::min(margin, row[level - 1] - row[s - 1]);
    }
    if (margin > best_margin) {
      best_margin = margin;
      typical = item;
    }
  }
  for (int n = 0; n < 32; ++n) {
    if (!server.Observe("bench-user", typical, 0, false).ok()) {
      state.SkipWithError("Observe failed");
      return;
    }
  }
  const Result<SessionLevel> reached = server.CurrentLevel("bench-user");
  if (!reached.ok() || reached.value().level != level) {
    state.SkipWithError("session did not reach the requested level");
    return;
  }
  UpskillRecommendationOptions options;
  options.max_results = 10;
  options.exclude_tried = false;
  size_t picks = 0;
  for (auto _ : state) {
    const auto result = server.Recommend("bench-user", options);
    picks = result.ok() ? result.value().size() : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["picks"] = static_cast<double>(picks);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RecommendServing)->Arg(1)->Arg(3)->Arg(5);

// The headline throughput bench: 100k live sessions, request waves of a
// 90% observe / 10% recommend mix, executed through the full request API
// (parse-level structs in, rendered response strings out) on the pool
// backend. items_per_second in the JSON output is requests per second.
// Arg(0) = pool threads, Arg(1) = live sessions.
void BM_ServeThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int num_sessions = static_cast<int>(state.range(1));
  Server server(BenchServingModel(), /*num_shards=*/256);
  exec::ThreadPoolBackend pool(threads);
  const int num_items = BenchServingModel()->num_items();
  Rng rng(13);

  // Seed every session once so recommends always find a live session
  // (and the map reaches steady-state size before timing starts).
  {
    std::vector<ServeRequest> seed(static_cast<size_t>(num_sessions));
    for (int u = 0; u < num_sessions; ++u) {
      ServeRequest& request = seed[static_cast<size_t>(u)];
      request.kind = ServeRequest::Kind::kObserve;
      request.user = "u" + std::to_string(u);
      request.item = static_cast<ItemId>(rng.NextInt(num_items));
    }
    server.ExecuteBatch(seed, &pool);
  }

  // Pre-generated request wave. Observes carry no timestamp (the session
  // reuses its last time), so waves can be replayed indefinitely.
  constexpr size_t kWave = 100000;
  std::vector<ServeRequest> wave(kWave);
  for (size_t i = 0; i < kWave; ++i) {
    ServeRequest& request = wave[i];
    request.user = "u" + std::to_string(rng.NextInt(num_sessions));
    if (rng.NextDouble() < 0.9) {
      request.kind = ServeRequest::Kind::kObserve;
      request.item = static_cast<ItemId>(rng.NextInt(num_items));
    } else {
      request.kind = ServeRequest::Kind::kRecommend;
      request.top_k = 10;
    }
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(server.ExecuteBatch(wave, &pool).data());
  }
  state.counters["sessions"] = static_cast<double>(server.num_sessions());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWave));
}
BENCHMARK(BM_ServeThroughput)
    ->Args({8, 100000})
    ->Args({1, 100000})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace serve
}  // namespace upskill

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  // Registry dump alongside the benchmark JSON when
  // UPSKILL_BENCH_METRICS_OUT is set (scripts/bench.sh --metrics).
  upskill::bench::MaybeWriteMetricsDump();
  benchmark::Shutdown();
  return 0;
}
