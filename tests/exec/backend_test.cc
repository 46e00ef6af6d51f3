// Unit tests for the execution backends: the Run() degenerate-count
// guard, serial/pool scheduling (exactly-once visitation, nested-Run
// reentrancy), CreateBackend's names and slot counts, the null-backend
// resolution rule and per-axis gating, and ExecContext workspace reuse
// across backend installs.

#include "exec/backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "exec/backend_registry.h"
#include "exec/map_reduce.h"
#include "exec/shard.h"
#include "exec/workspace.h"
#include "store/store_reader.h"
#include "store/store_writer.h"

namespace upskill {
namespace exec {
namespace {

Dataset MakeDataset(const std::vector<int>& sequence_lengths,
                    int num_items = 8) {
  FeatureSchema schema;
  EXPECT_TRUE(schema.AddCount("steps").ok());
  ItemTable items(std::move(schema));
  for (int i = 0; i < num_items; ++i) {
    const double row[] = {static_cast<double>(i + 1)};
    EXPECT_TRUE(items.AddItem(row).ok());
  }
  Dataset dataset(std::move(items));
  for (const int length : sequence_lengths) {
    const UserId user = dataset.AddUser();
    for (int n = 0; n < length; ++n) {
      EXPECT_TRUE(
          dataset.AddAction(user, n, static_cast<ItemId>(n % num_items)).ok());
    }
  }
  return dataset;
}

// Every backend shape the sweep cares about, built fresh per call so a
// test can exercise construction too.
std::vector<std::shared_ptr<Backend>> AllBackends() {
  std::vector<std::shared_ptr<Backend>> backends;
  backends.push_back(
      std::shared_ptr<Backend>(SerialBackend::Get(), [](Backend*) {}));
  backends.push_back(std::make_shared<ThreadPoolBackend>(3));
  return backends;
}

TEST(BackendRunTest, DegenerateShardCountsNeverDispatch) {
  for (const auto& backend : AllBackends()) {
    std::atomic<int> calls{0};
    backend->Run(0, [&](int) { calls.fetch_add(1); });
    backend->Run(-1, [&](int) { calls.fetch_add(1); });
    backend->Run(-1000, [&](int) { calls.fetch_add(1); });
    backend->RunIndices(5, 5, [&](size_t) { calls.fetch_add(1); });
    backend->RunIndices(0, 0, [&](size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0) << backend->name();
  }
  // MapShards funnels through the same guard, null backend included.
  std::atomic<int> calls{0};
  MapShards(nullptr, 0, [&](int) { calls.fetch_add(1); });
  MapShards(nullptr, -3, [&](int) { calls.fetch_add(1); });
  MapShards(SerialBackend::Get(), 0, [&](int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(BackendRunTest, EmptyMappedStorePlanIsSafeOnEveryBackend) {
  // A packed store with zero users maps to an empty dataset; the exec
  // context's degenerate plan over it must never reach a backend with a
  // shard that has users, and a zero shard count must not dispatch.
  const std::string path = testing::TempDir() + "/backend_empty.store";
  ASSERT_TRUE(store::PackDataset(MakeDataset({}), path).ok());
  auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto mapped = reader.value().MapDataset();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(mapped.value().num_users(), 0);

  for (const auto& backend : AllBackends()) {
    ExecContext context;
    context.EnsureUserShards(mapped.value(), 0, backend.get());
    std::atomic<int> users_seen{0};
    MapShards(backend.get(), context.num_shards(), [&](int shard) {
      const DatasetShard& view =
          context.shards()[static_cast<size_t>(shard)];
      users_seen.fetch_add(
          static_cast<int>(view.user_end() - view.user_begin()));
    });
    EXPECT_EQ(users_seen.load(), 0) << backend->name();
  }
}

TEST(BackendRunTest, EveryShardRunsExactlyOnce) {
  constexpr int kShards = 97;
  for (const auto& backend : AllBackends()) {
    std::vector<std::atomic<int>> visits(kShards);
    for (auto& v : visits) v.store(0);
    backend->Run(kShards, [&](int shard) {
      visits[static_cast<size_t>(shard)].fetch_add(1);
    });
    for (int k = 0; k < kShards; ++k) {
      EXPECT_EQ(visits[static_cast<size_t>(k)].load(), 1)
          << backend->name() << " shard " << k;
    }
  }
}

TEST(BackendRunTest, RunIndicesCoversEveryIndexExactlyOnce) {
  constexpr size_t kBegin = 3;
  constexpr size_t kEnd = 131;
  for (const auto& backend : AllBackends()) {
    std::vector<std::atomic<int>> visits(kEnd);
    for (auto& v : visits) v.store(0);
    backend->RunIndices(kBegin, kEnd,
                        [&](size_t i) { visits[i].fetch_add(1); });
    for (size_t i = 0; i < kEnd; ++i) {
      EXPECT_EQ(visits[i].load(), i < kBegin ? 0 : 1)
          << backend->name() << " index " << i;
    }
  }
}

TEST(BackendRunTest, NestedRunExecutesInline) {
  // A shard body that dispatches through its own backend must not
  // deadlock (the pool backend's ParallelFor completes on a per-call
  // latch with the calling thread participating).
  for (const auto& backend : AllBackends()) {
    std::atomic<int> inner{0};
    backend->Run(4, [&](int) {
      backend->Run(3, [&](int) { inner.fetch_add(1); });
    });
    EXPECT_EQ(inner.load(), 12) << backend->name();
  }
}

TEST(ThreadPoolBackendTest, ConcurrencyCountsWorkersPlusCaller) {
  ThreadPoolBackend owned(3);
  EXPECT_EQ(owned.concurrency(), 4);  // 3 workers + the calling thread
}

TEST(ThreadPoolBackendTest, OneWorkerPoolHasOneSlot) {
  // ParallelFor runs a one-worker pool inline on the caller, so its
  // automatic shard counts must not plan for a second slot.
  auto backend = CreateBackend("pool", 1);
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ(backend.value()->concurrency(), 1);
  EXPECT_EQ(ResolveShardCount(0, backend.value().get(), 1000),
            kDefaultShardsPerSlot);
}

TEST(ThreadPoolBackendTest, OneThreadPoolStartsNoThread) {
  // The one-worker pool runs every loop inline, so a worker thread would
  // idle for the backend's lifetime; none may be started.
  const auto threads = [] {
    size_t count = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++count;
    }
    return count;
  };
  const size_t before = threads();
  auto backend = CreateBackend("pool", 1);
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ(threads(), before);
  EXPECT_STREQ(backend.value()->name(), "pool");
  EXPECT_EQ(backend.value()->concurrency(), 1);
  int visited = 0;
  backend.value()->Run(5, [&](int) { ++visited; });
  EXPECT_EQ(visited, 5);
  // Two threads still get real workers.
  ThreadPoolBackend two(2);
  EXPECT_EQ(threads(), before + 2);
}

TEST(ThreadPoolBackendTest, PoolMatchesSerialShardByShard) {
  // The pool backend must produce bitwise-identical per-shard reductions
  // to inline serial execution, for every thread and shard count.
  const std::vector<double> values = [] {
    std::vector<double> v(1000);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = 1.0 / static_cast<double>(i + 3);
    }
    return v;
  }();
  for (const int threads : {1, 2, 8}) {
    for (const int shards : {1, 3, 7}) {
      const ShardPlan plan = ShardPlan::Contiguous(values.size(), shards);
      const auto reduce = [&](Backend* backend) {
        std::vector<double> sums(static_cast<size_t>(shards), 0.0);
        MapShards(backend, shards, [&](int shard) {
          const IndexRange range = plan.range(shard);
          sums[static_cast<size_t>(shard)] =
              ReduceOrderedSum(std::span<const double>(
                  values.data() + range.begin, range.end - range.begin));
        });
        return sums;
      };
      auto pool = CreateBackend("pool", threads);
      ASSERT_TRUE(pool.ok());
      EXPECT_EQ(reduce(nullptr), reduce(pool.value().get()))
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

TEST(CreateBackendTest, BuiltinsResolveAndUnknownNamesFail) {
  auto serial = CreateBackend("serial", 8);
  ASSERT_TRUE(serial.ok());
  EXPECT_STREQ(serial.value()->name(), "serial");
  EXPECT_EQ(serial.value()->concurrency(), 1);

  auto pool = CreateBackend("pool", 3);
  ASSERT_TRUE(pool.ok());
  EXPECT_STREQ(pool.value()->name(), "pool");
  EXPECT_EQ(pool.value()->concurrency(), 4);

  // Unknown names fail with InvalidArgument, and the error lists the
  // known backends so a CLI typo is self-explaining.
  for (const char* name : {"numa", "gpu"}) {
    auto unknown = CreateBackend(name, 2);
    ASSERT_FALSE(unknown.ok()) << name;
    EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(unknown.status().message().find("pool, serial"),
              std::string::npos)
        << unknown.status().message();
  }
}

TEST(CreateBackendTest, EmptyAndAutoFollowTheThreadCount) {
  auto inline_default = CreateBackend("", 1);
  ASSERT_TRUE(inline_default.ok());
  EXPECT_STREQ(inline_default.value()->name(), "serial");

  auto pooled_default = CreateBackend("", 4);
  ASSERT_TRUE(pooled_default.ok());
  EXPECT_STREQ(pooled_default.value()->name(), "pool");

  auto auto_default = CreateBackend("auto", 4);
  ASSERT_TRUE(auto_default.ok());
  EXPECT_STREQ(auto_default.value()->name(), "pool");
}

TEST(ExecContextBackendTest, InstallingBackendsKeepsWorkspaces) {
  // Workspaces never depend on the backend, so installing one — the same
  // instance again, a different one, or none — keeps the plan and every
  // grown arena (stable addresses across passes).
  const Dataset dataset = MakeDataset({4, 6, 2, 8, 3});
  ExecContext context;
  auto first = CreateBackend("pool", 2);
  ASSERT_TRUE(first.ok());
  context.SetBackend(first.value());
  EXPECT_EQ(context.backend(), first.value().get());
  context.EnsureUserShards(dataset, 3);
  ASSERT_EQ(context.num_shards(), 3);
  context.workspace(0).dp.items.resize(64);
  ShardWorkspace* stable = &context.workspace(0);

  auto second = CreateBackend("serial", 1);
  ASSERT_TRUE(second.ok());
  for (const auto& backend : {first.value(), second.value(),
                              std::shared_ptr<Backend>()}) {
    context.SetBackend(backend);
    context.EnsureUserShards(dataset, 3);
    ASSERT_EQ(context.num_shards(), 3);
    EXPECT_EQ(&context.workspace(0), stable);
    EXPECT_EQ(context.workspace(0).dp.items.size(), 64u);
  }
  EXPECT_EQ(context.backend(), nullptr);
}

TEST(ExecContextBackendTest, AutomaticShardCountFollowsTheInstalledBackend) {
  const Dataset dataset = MakeDataset(std::vector<int>(100, 3));
  auto pool = CreateBackend("pool", 3);
  ASSERT_TRUE(pool.ok());
  ExecContext installed;
  installed.SetBackend(pool.value());
  installed.EnsureUserShards(dataset, 0);
  EXPECT_EQ(installed.num_shards(), 4 * kDefaultShardsPerSlot);

  // An explicit backend wins over the installed one; none installed is
  // serial.
  ExecContext bare;
  bare.EnsureUserShards(dataset, 0);
  EXPECT_EQ(bare.num_shards(), kDefaultShardsPerSlot);
  ExecContext explicit_backend;
  explicit_backend.EnsureUserShards(dataset, 0, pool.value().get());
  EXPECT_EQ(explicit_backend.num_shards(), 4 * kDefaultShardsPerSlot);
}

TEST(ResolveBackendTest, NullMeansInstalledThenSerial) {
  auto pool = CreateBackend("pool", 2);
  ASSERT_TRUE(pool.ok());
  Backend* installed = pool.value().get();
  Backend* serial = SerialBackend::Get();
  EXPECT_EQ(ResolveBackend(nullptr), serial);
  EXPECT_EQ(ResolveBackend(nullptr, installed), installed);
  EXPECT_EQ(ResolveBackend(serial, installed), serial);
  EXPECT_EQ(ResolveBackend(installed), installed);
}

TEST(ResolveBackendTest, ForAxisGatesOnTheFlagAndOnConcurrency) {
  auto pool = CreateBackend("pool", 2);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(ForAxis(pool.value().get(), true), pool.value().get());
  EXPECT_EQ(ForAxis(pool.value().get(), false), SerialBackend::Get());
  // A one-slot backend is serial either way.
  auto single = CreateBackend("pool", 1);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(ForAxis(single.value().get(), true), SerialBackend::Get());
  EXPECT_EQ(ForAxis(SerialBackend::Get(), true), SerialBackend::Get());
}

}  // namespace
}  // namespace exec
}  // namespace upskill
