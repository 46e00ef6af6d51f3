#include "harness.h"

#include <gtest/gtest.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <thread>

#include "core/difficulty.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "net/frame.h"
#include "serve/serving_model.h"
#include "serve/snapshot.h"

namespace e2e {
namespace {

TEST(OpenLoopSchedule, ReproducibleFromSeed) {
  const auto a = MakeOpenLoopSchedule(7, 5000.0, 2.0, 100);
  const auto b = MakeOpenLoopSchedule(7, 5000.0, 2.0, 100);
  const auto c = MakeOpenLoopSchedule(8, 5000.0, 2.0, 100);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].draw, b[i].draw);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_ns != c[i].due_ns || a[i].user != c[i].user;
  }
  EXPECT_TRUE(differs);
  // Poisson count over 2 s at 5000/s: mean 10000, sd 100.
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 500.0);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].due_ns, a[i].due_ns);
    EXPECT_LT(a[i].user, 100u);
  }
  EXPECT_LT(a.back().due_ns, 2'000'000'000);
}

TEST(CpuRotation, MovesTheThreadsAcrossTheCpus) {
  const std::vector<int> cpus = AllowedCpus();
  ASSERT_FALSE(cpus.empty());
  const std::vector<int> pair = {cpus.front(), cpus.back()};
  std::atomic<bool> stop{false};
  std::atomic<pid_t> tid{0};
  std::thread worker([&] {
    tid.store(static_cast<pid_t>(::syscall(SYS_gettid)));
    while (!stop.load()) std::this_thread::yield();
  });
  while (tid.load() == 0) std::this_thread::yield();
  std::set<int> seen;
  {
    const CpuRotation rotation({tid.load()}, pair, 5'000'000);
    for (int i = 0; i < 400 && seen.size() < 2; ++i) {
      cpu_set_t set;
      CPU_ZERO(&set);
      ASSERT_EQ(::sched_getaffinity(tid.load(), sizeof(set), &set), 0);
      ASSERT_EQ(CPU_COUNT(&set), 1);
      for (int cpu : pair) {
        if (CPU_ISSET(cpu, &set)) seen.insert(cpu);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stop.store(true);
  worker.join();
  EXPECT_EQ(seen, std::set<int>(pair.begin(), pair.end()));
}

TEST(IdleSpinners, CountTheirOwnCpuTime) {
  const IdleSpinners spinners({AllowedCpus().front()});
  const double start = spinners.CpuSeconds();
  // A SCHED_IDLE thread runs only when its CPU has nothing else to do.
  for (int i = 0; i < 200 && spinners.CpuSeconds() == start; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(spinners.CpuSeconds(), start);
}

TEST(OpenLoopTiming, LatencyCountsFromDueTime) {
  // Due at 1 ms, sent 300 us late, answered 50 us after sending.
  RequestTiming timing{1'000'000, 1'300'000, 1'350'000};
  EXPECT_DOUBLE_EQ(LatencyMicros(timing), 350.0);
  EXPECT_DOUBLE_EQ(LatenessMicros(timing), 300.0);
  // Sent early (cannot happen, but never negative lateness).
  RequestTiming early{1'000'000, 900'000, 950'000};
  EXPECT_DOUBLE_EQ(LatenessMicros(early), 0.0);
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  std::vector<double> values;
  for (int i = 1; i <= 1009; ++i) values.push_back(i);
  // p99 of 1009 samples is rank 999; 10 samples lie beyond it.
  ASSERT_TRUE(Percentile(values, 0.99).has_value());
  EXPECT_DOUBLE_EQ(*Percentile(values, 0.99), 999.0);
  values.pop_back();  // 1008 samples: rank 998, 10 beyond
  EXPECT_TRUE(Percentile(values, 0.99).has_value());
  values.resize(1000);  // rank 990, 10 beyond
  EXPECT_TRUE(Percentile(values, 0.99).has_value());
  values.resize(999);  // rank 990, 9 beyond
  EXPECT_FALSE(Percentile(values, 0.99).has_value());

  std::vector<double> small = {5, 1, 3};
  EXPECT_FALSE(Percentile(small, 0.5).has_value());
  std::vector<double> median(21);
  for (int i = 0; i < 21; ++i) median[static_cast<size_t>(i)] = 20 - i;
  ASSERT_TRUE(Percentile(median, 0.5).has_value());
  EXPECT_DOUBLE_EQ(*Percentile(median, 0.5), 10.0);
  // Failed operations are infinite and sort last.
  median[0] = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isfinite(*Percentile(median, 0.5)));
}

TEST(SpanSummary, SelfTimeSubtractsCoveredChildIntervals) {
  // root [0, 100): children a [10, 30) and b [20, 50) overlap, so they
  // cover [10, 50) = 40; a has a child c [12, 18).
  std::vector<Span> spans = {
      {1, -1, "root", 0, 100},
      {1, 0, "a", 10, 30},
      {1, 1, "c", 12, 18},
      {1, 0, "b", 20, 50},
      // A second op with another root, to check per-name summing.
      {2, -1, "root", 200, 210},
  };
  const auto totals = SummarizeSpans(spans);
  EXPECT_DOUBLE_EQ(totals.at("root").self_ns, 60.0 + 10.0);
  EXPECT_DOUBLE_EQ(totals.at("root").total_ns, 110.0);
  EXPECT_EQ(totals.at("root").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("a").self_ns, 14.0);
  EXPECT_DOUBLE_EQ(totals.at("c").self_ns, 6.0);
  EXPECT_DOUBLE_EQ(totals.at("b").self_ns, 30.0);
  // A child sticking out of its parent only counts inside it.
  std::vector<Span> clipped = {{1, -1, "p", 0, 10}, {1, 0, "q", 5, 20}};
  EXPECT_DOUBLE_EQ(SummarizeSpans(clipped).at("p").self_ns, 5.0);
}

TEST(Tracer, SpansShareOpIdAndLinkParents) {
  Tracer tracer;
  tracer.BeginOp();
  {
    ScopedSpan root(&tracer, "root");
    ScopedSpan child(&tracer, "child");
  }
  tracer.BeginOp();
  { ScopedSpan other(&tracer, "root"); }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].op, spans[1].op);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_NE(spans[2].op, spans[0].op);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
  const std::string json = ChromeTraceJson(spans, 1);
  EXPECT_NE(json.find("\"child\""), std::string::npos);
  EXPECT_EQ(json.find("\"op\":2"), std::string::npos);
}

class ShadowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    upskill::datagen::SyntheticConfig data_config;
    data_config.seed = 5;
    auto data = upskill::datagen::GenerateSynthetic(data_config);
    ASSERT_TRUE(data.ok());
    const upskill::Dataset& dataset = data.value().dataset;
    upskill::SkillModelConfig config;
    config.num_levels = 4;
    config.min_init_actions = 15;
    config.max_iterations = 4;
    auto trained = upskill::Trainer(config).Train(dataset);
    ASSERT_TRUE(trained.ok());
    auto difficulty = upskill::EstimateDifficultyByGeneration(
        dataset.items(), trained.value().model,
        upskill::DifficultyPrior::kEmpirical, trained.value().assignments);
    ASSERT_TRUE(difficulty.ok());
    auto snapshot = upskill::serve::MakeSnapshot(
        trained.value().model, dataset.items(), difficulty.value());
    ASSERT_TRUE(snapshot.ok());
    auto model = upskill::serve::ServingModel::FromSnapshot(
        std::move(snapshot).value(),
        static_cast<upskill::exec::Backend*>(nullptr));
    ASSERT_TRUE(model.ok());
    model_ = model.value();
  }

  // Observes, recommends and difficulty lookups for a few users, answered
  // by a server under test in-process and encoded as the TCP path does.
  RecordedStream Record() {
    upskill::serve::Server primary(model_);
    RecordedStream stream;
    for (int i = 0; i < 60; ++i) {
      upskill::serve::ServeRequest request;
      request.user = "u";
      request.user += std::to_string(i % 5);
      request.item = (i * 7) % model_->num_items();
      std::string response;
      if (i % 3 == 2 && i > 10) {
        request.kind = upskill::serve::ServeRequest::Kind::kRecommend;
        request.top_k = 5;
        upskill::UpskillRecommendationOptions options;
        options.max_results = request.top_k;
        options.stretch = request.stretch;
        upskill::net::EncodeRecommendResponse(
            primary.Recommend(request.user, options).value(), &response);
      } else if (i % 7 == 6) {
        request.kind = upskill::serve::ServeRequest::Kind::kDifficulty;
        upskill::net::EncodeDifficultyResponse(
            primary.ItemDifficulty(request.item).value(), &response);
      } else {
        request.kind = upskill::serve::ServeRequest::Kind::kObserve;
        upskill::net::EncodeLevelResponse(
            primary.Observe(request.user, request.item, 0, false).value(),
            &response);
      }
      std::string frame;
      upskill::net::EncodeRequest(request, &frame);
      stream.requests.push_back(frame);
      stream.responses.push_back(response);
    }
    return stream;
  }

  std::shared_ptr<const upskill::serve::ServingModel> model_;
};

TEST_F(ShadowTest, MatchingStreamPasses) {
  const RecordedStream stream = Record();
  upskill::serve::Server shadow(model_);
  Tracer tracer;
  const ShadowReport report = ReplayAgainstShadow(stream, shadow, &tracer, 8);
  EXPECT_EQ(report.mismatches, 0u);
  for (uint8_t failed : report.failed) EXPECT_EQ(failed, 0);
  const auto totals = SummarizeSpans(tracer.spans());
  EXPECT_GT(totals.at("serve.session").count, 0u);
  EXPECT_GT(totals.at("serve.rank").count, 0u);
  EXPECT_GT(totals.at("net.decode").count, 0u);
}

TEST_F(ShadowTest, PlantedWrongResponseIsFlagged) {
  RecordedStream stream = Record();
  // Flip one bit of a recommend payload's last byte and drop another
  // response entirely.
  size_t planted = 0;
  for (size_t i = 0; i < stream.requests.size(); ++i) {
    if (stream.responses[i].size() > 20) {
      planted = i;
      break;
    }
  }
  ASSERT_GT(planted, 0u);
  stream.responses[planted].back() ^= 1;
  stream.responses[3].clear();
  upskill::serve::Server shadow(model_);
  const ShadowReport report = ReplayAgainstShadow(stream, shadow, nullptr);
  EXPECT_EQ(report.mismatches, 1u);
  EXPECT_EQ(report.failed[planted], 1);
  EXPECT_EQ(report.failed[3], 1);
  size_t failed = 0;
  for (uint8_t f : report.failed) failed += f;
  EXPECT_EQ(failed, 2u);
}

}  // namespace
}  // namespace e2e
