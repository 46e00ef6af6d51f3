// train-cooking and train-beer: repeated full Trainer::Train fits on
// paper-sized simulated domains at S = 5.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>

#include "core/trainer.h"
#include "datagen/beer.h"
#include "datagen/cooking.h"
#include "exec/backend.h"
#include "exec/backend_registry.h"
#include "exec/workspace.h"
#include "harness.h"
#include "workloads.h"

namespace e2e {

using upskill::AssignmentEngine;
using upskill::AssignmentStats;
using upskill::Dataset;
using upskill::LogProbCache;
using upskill::SkillAssignments;
using upskill::SkillModel;
using upskill::SkillModelConfig;
namespace exec = upskill::exec;

// Fits stop after this many coordinate-ascent iterations
// (max_iterations). Left to converge, the iteration count swings from 17
// to 28 with the seed, and fit time with it; a fixed budget keeps one op
// the same amount of work on every seed. core.iterations reports the
// count, so a fit that converges sooner shows.
constexpr int kFitIterations = 12;
// Each run fits this many datasets in turn, generated from seeds
// kDatasetsPerRun * seed + k: fit cost depends on the data (how many
// cache cells and users each iteration dirties), and cycling over several
// datasets keeps one unlucky draw from setting a run's median. Each
// generation is one timed set-up.
constexpr int kDatasetsPerRun = 3;
// The median is reported only with kMinSamplesBeyond fits above it.
constexpr int kMinFits = 2 * static_cast<int>(kMinSamplesBeyond) + 1;

// Table I sizes: Cooking 6,012 users x 37,092 recipes, mean length 19.2;
// Beer 4,540 users x 8,953 beers, mean length 437 (~1.98M actions).
Dataset GenerateDomain(bool cooking, uint64_t seed) {
  upskill::Result<upskill::datagen::GeneratedData> generated =
      upskill::Status::Internal("unset");
  if (cooking) {
    upskill::datagen::CookingConfig config;
    config.num_levels = 5;
    config.num_users = 6012;
    config.num_recipes = 37092;
    config.mean_sequence_length = 19.2;
    config.seed = seed;
    generated = upskill::datagen::GenerateCooking(config);
  } else {
    upskill::datagen::BeerConfig config;
    config.num_levels = 5;
    config.num_users = 4540;
    config.num_beers = 8953;
    config.mean_sequence_length = 437.0;
    config.seed = seed;
    generated = upskill::datagen::GenerateBeer(config);
  }
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset generation failed: %s\n",
                 generated.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(generated).value().dataset;
}

SkillModelConfig FitConfig(bool cooking) {
  SkillModelConfig config;
  config.num_levels = 5;
  config.max_iterations = kFitIterations;
  config.backend = cooking ? "pool" : "serial";
  config.parallel.num_threads = cooking ? 2 : 1;
  config.parallel.users = cooking;
  config.parallel.levels = cooking;
  config.parallel.features = cooking;
  return config;
}

namespace {

// What must repeat bitwise from fit to fit.
struct FitSignature {
  int iterations = 0;
  double final_log_likelihood = 0.0;
  std::vector<double> parameters;

  bool SameBits(const FitSignature& other) const {
    return iterations == other.iterations &&
           std::memcmp(&final_log_likelihood, &other.final_log_likelihood,
                       sizeof(double)) == 0 &&
           parameters.size() == other.parameters.size() &&
           std::memcmp(parameters.data(), other.parameters.data(),
                       parameters.size() * sizeof(double)) == 0;
  }
};

FitSignature Signature(const upskill::TrainResult& result) {
  FitSignature signature;
  signature.iterations = result.iterations;
  signature.final_log_likelihood = result.final_log_likelihood;
  const SkillModel& model = result.model;
  for (int f = 0; f < model.num_features(); ++f) {
    for (int s = 1; s <= model.num_levels(); ++s) {
      const std::vector<double> params = model.component(f, s).Parameters();
      signature.parameters.insert(signature.parameters.end(), params.begin(),
                                  params.end());
    }
  }
  return signature;
}

// The traced replay of one fit's counters.
struct ReplayOutcome {
  int iterations = 0;
  double final_log_likelihood = 0.0;
  uint64_t dirty_cells = 0;
  uint64_t cells = 0;
  uint64_t skipped_users = 0;
  uint64_t reassigned_users = 0;
  uint64_t dp_actions = 0;
  uint64_t dp_users = 0;
};

// Trainer::Train's coordinate ascent (no progression component) replayed
// through the same public calls, each wrapped in a span:
// InitializeAssignments -> FitParameters, then per iteration
// LogProbCache::Update -> AssignmentEngine::Assign -> FitParameters.
ReplayOutcome ReplayFit(const Dataset& dataset, const SkillModelConfig& config,
                        Tracer* tracer) {
  ReplayOutcome out;
  // Per-iteration item dirt (empty = full pass), for the DP action count
  // worked out after the fit so it stays out of the timed spans.
  std::vector<std::vector<uint8_t>> pass_dirt;
  tracer->BeginOp();
  {
    ScopedSpan fit(tracer, "core.fit");
    std::shared_ptr<exec::Backend> backend =
        exec::CreateBackend(config.backend, config.parallel.any()
                                                ? config.parallel.num_threads
                                                : 1)
            .value();
    SkillModel model = SkillModel::Create(dataset.schema(), config).value();
    exec::ExecContext context;
    context.SetBackend(backend);
    context.EnsureUserShards(dataset, config.num_shards);
    {
      const SkillAssignments init = [&] {
        ScopedSpan span(tracer, "core.init");
        return upskill::InitializeAssignments(dataset, config.num_levels,
                                              config.min_init_actions);
      }();
      ScopedSpan span(tracer, "core.update");
      upskill::FitParameters(dataset, init, &model, nullptr, config.parallel,
                             &context);
    }
    LogProbCache cache;
    AssignmentEngine engine(dataset, config.num_levels, config.num_shards,
                            &context);
    exec::Backend* user_backend =
        (config.parallel.users && backend->concurrency() > 1)
            ? backend.get()
            : exec::SerialBackend::Get();
    const uint64_t cells_per_update =
        static_cast<uint64_t>(model.num_features()) *
        static_cast<uint64_t>(config.num_levels);
    bool weights_changed = true;
    double previous_ll = -std::numeric_limits<double>::infinity();
    for (int iteration = 0; iteration < config.max_iterations; ++iteration) {
      {
        ScopedSpan span(tracer, "core.cache");
        cache.Update(model, dataset.items(), user_backend);
      }
      out.dirty_cells += static_cast<uint64_t>(cache.last_dirty_cells());
      out.cells += cells_per_update;
      const std::vector<uint8_t>* dirty_items =
          config.incremental_assignment ? &cache.dirty_items() : nullptr;
      const AssignmentStats stats = [&] {
        ScopedSpan span(tracer, "core.assign");
        return engine.Assign(model, cache.values(), nullptr, nullptr,
                             config.parallel, dirty_items, weights_changed);
      }();
      pass_dirt.push_back(weights_changed || dirty_items == nullptr
                              ? std::vector<uint8_t>{}
                              : *dirty_items);
      out.skipped_users += stats.skipped_users;
      out.reassigned_users += stats.reassigned_users;
      weights_changed = false;
      const double ll = stats.log_likelihood;
      out.iterations = iteration + 1;
      const bool unchanged = iteration > 0 && !stats.changed;
      const bool small_gain =
          std::isfinite(previous_ll) &&
          ll - previous_ll <= config.relative_tolerance * std::abs(previous_ll);
      out.final_log_likelihood = ll;
      if (unchanged || small_gain) break;
      previous_ll = ll;
      ScopedSpan span(tracer, "core.update");
      upskill::FitParameters(dataset, engine.assignments(), &model, nullptr,
                             config.parallel, &context);
    }
  }
  for (const std::vector<uint8_t>& dirt : pass_dirt) {
    for (upskill::UserId u = 0; u < dataset.num_users(); ++u) {
      const auto sequence = dataset.sequence(u);
      bool solved = dirt.empty();
      for (size_t n = 0; n < sequence.size() && !solved; ++n) {
        solved = dirt[static_cast<size_t>(sequence[n].item)] != 0;
      }
      if (solved) {
        out.dp_actions += sequence.size();
        ++out.dp_users;
      }
    }
  }
  return out;
}

// Median wall time of one empty Backend::Run over the fit's shard count:
// the fixed cost every sharded phase pays per dispatch.
double DispatchMicros(const Dataset& dataset, const SkillModelConfig& config) {
  std::shared_ptr<exec::Backend> backend =
      exec::CreateBackend(config.backend, config.parallel.any()
                                              ? config.parallel.num_threads
                                              : 1)
          .value();
  exec::ExecContext context;
  context.SetBackend(backend);
  context.EnsureUserShards(dataset, config.num_shards);
  const int shards = context.num_shards();
  std::vector<double> micros;
  for (int i = 0; i < 2100; ++i) {
    const int64_t start = NowNs();
    backend->Run(shards, [](int) {});
    if (i >= 100) micros.push_back(static_cast<double>(NowNs() - start) * 1e-3);
  }
  return Percentile(std::move(micros), 0.5).value_or(0.0);
}

struct FitWindow {
  std::vector<double> fit_us;
  double cpu_seconds = 0.0;
  uint64_t mismatches = 0;
  HostWindow host;
};

// Fits back to back for `seconds` (and at least kMinFits times), cycling
// over `datasets`; every fit must equal the first fit of its dataset
// bitwise (`references`, filled on first use). The CPU time of
// `spinners` (may be null) is not counted as the fits'.
FitWindow RunFits(const std::vector<Dataset>& datasets,
                  const SkillModelConfig& config, double seconds,
                  const IdleSpinners* spinners,
                  std::vector<FitSignature>* references) {
  FitWindow window;
  const upskill::Trainer trainer(config);
  auto spinner_cpu = [spinners] {
    return spinners != nullptr ? spinners->CpuSeconds() : 0.0;
  };
  const double probe_before = ReferenceProbeMicros();
  const HostTicks ticks_before = ReadHostTicks();
  const double cpu_start = ProcessCpuSeconds() - spinner_cpu();
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (static_cast<int>(window.fit_us.size()) < kMinFits ||
         NowNs() < deadline) {
    const size_t k = window.fit_us.size() % datasets.size();
    const int64_t start = NowNs();
    upskill::Result<upskill::TrainResult> result = trainer.Train(datasets[k]);
    window.fit_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    if (!result.ok()) {
      ++window.mismatches;
      continue;
    }
    FitSignature signature = Signature(result.value());
    FitSignature& reference = (*references)[k];
    if (reference.iterations == 0) {
      reference = std::move(signature);
    } else if (!signature.SameBits(reference)) {
      ++window.mismatches;
    }
  }
  window.cpu_seconds = ProcessCpuSeconds() - spinner_cpu() - cpu_start;
  window.host.steal_ratio = StealRatio(ticks_before, ReadHostTicks());
  window.host.probe_us = 0.5 * (probe_before + ReferenceProbeMicros());
  return window;
}

}  // namespace

Report RunTrainWorkload(const RunOptions& options) {
  Report report;
  const bool cooking = options.workload == "train-cooking";
  const SkillModelConfig config = FitConfig(cooking);

  // Set-up: input generation, once per dataset; the median is reported.
  std::vector<double> setup_seconds;
  std::vector<Dataset> datasets;
  for (int k = 0; k < kDatasetsPerRun; ++k) {
    const int64_t start = NowNs();
    datasets.push_back(GenerateDomain(
        cooking, options.seed * kDatasetsPerRun + static_cast<uint64_t>(k)));
    setup_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    const Dataset& dataset = datasets.back();
    report.notes.push_back("dataset " + std::to_string(k) + ": " +
                           std::to_string(dataset.num_users()) + " users, " +
                           std::to_string(dataset.num_actions()) + " actions, " +
                           std::to_string(dataset.items().num_items()) +
                           " items");
  }

  // A pool-backend fit releases its workers from a barrier several times
  // per iteration, each phase a few ms. Between phases the vCPUs halt,
  // and every release then waits for the hypervisor to wake them: fit
  // wall time followed the host's steal, and op_us.p50 spread 35% over
  // ten runs at 6-18% steal. From here on an idle spinner on every CPU
  // (see IdleSpinners) keeps the vCPUs awake, so what is left is the
  // pool's own wake-up and dispatch cost. The serial fit never waits on
  // another thread and runs without them.
  std::unique_ptr<IdleSpinners> spinners;
  if (config.parallel.num_threads > 1) {
    spinners = std::make_unique<IdleSpinners>(AllowedCpus());
  }
  std::vector<FitSignature> references(datasets.size());
  const FitWindow window = RunFits(datasets, config,
                                   options.trace ? options.seconds / 2
                                                 : options.seconds,
                                   spinners.get(), &references);
  const uint64_t fits = window.fit_us.size();
  report.attempted = fits;
  report.failed = window.mismatches;
  if (window.mismatches > 0) {
    report.Fail(std::to_string(window.mismatches) + " of " +
                std::to_string(fits) + " fits differ bitwise from the first");
  }
  const std::optional<double> fit_p50 = Percentile(window.fit_us, 0.5);
  report.notes.push_back("fits: " + std::to_string(fits));
  for (size_t k = 0; k < references.size(); ++k) {
    report.notes.push_back("dataset " + std::to_string(k) + ": iterations " +
                           std::to_string(references[k].iterations) +
                           ", final log-likelihood " +
                           std::to_string(references[k].final_log_likelihood));
  }

  if (!options.trace) {
    report.Add("setup_s", Median(setup_seconds), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    Metric p50{"op_us.p50", fit_p50.value_or(0.0), "us", !fit_p50.has_value()};
    report.metrics.push_back(p50);
    report.Add("cpu_us_per_op", window.cpu_seconds * 1e6 / static_cast<double>(fits),
               "us");
    report.Add("host.steal_ratio", window.host.steal_ratio, "ratio");
    report.Add("host.probe_us", window.host.probe_us, "us");
    return report;
  }

  // Traced run: replay the coordinate ascent with spans around each
  // public call, for the remaining half of the time.
  Tracer tracer;
  std::vector<double> traced_fit_us;
  ReplayOutcome totals;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds / 2 * 1e9);
  while (traced_fit_us.size() < 3 || NowNs() < deadline) {
    const size_t k = traced_fit_us.size() % datasets.size();
    const FitSignature& reference = references[k];
    const size_t first_span = tracer.spans().size();
    const ReplayOutcome outcome = ReplayFit(datasets[k], config, &tracer);
    const Span& root = tracer.spans()[first_span];
    traced_fit_us.push_back(static_cast<double>(root.end_ns - root.start_ns) *
                            1e-3);
    if (outcome.iterations != reference.iterations ||
        std::memcmp(&outcome.final_log_likelihood,
                    &reference.final_log_likelihood, sizeof(double)) != 0) {
      ++report.failed;
      report.Fail("traced replay reached " +
                  std::to_string(outcome.iterations) + " iterations / " +
                  std::to_string(outcome.final_log_likelihood) +
                  ", Trainer::Train " + std::to_string(reference.iterations) +
                  " / " + std::to_string(reference.final_log_likelihood));
    }
    if (outcome.dp_users != outcome.reassigned_users) {
      report.notes.push_back("dirty-user count outside the engine (" +
                             std::to_string(outcome.dp_users) +
                             ") differs from AssignmentStats (" +
                             std::to_string(outcome.reassigned_users) + ")");
    }
    totals.iterations += outcome.iterations;
    totals.dirty_cells += outcome.dirty_cells;
    totals.cells += outcome.cells;
    totals.skipped_users += outcome.skipped_users;
    totals.reassigned_users += outcome.reassigned_users;
    totals.dp_actions += outcome.dp_actions;
  }
  report.attempted += traced_fit_us.size();

  const std::map<std::string, SpanTotals> spans = SummarizeSpans(tracer.spans());
  auto self_ns = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_ns;
  };
  auto per_call_us = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : it->second.self_ns * 1e-3 / static_cast<double>(it->second.count);
  };
  const double fit_ns = spans.at("core.fit").total_ns;
  const double layers_ns = self_ns("core.init") + self_ns("core.cache") +
                           self_ns("core.assign") + self_ns("core.update");
  const double assign_ns = self_ns("core.assign");
  report.Add("core.init_us", per_call_us("core.init"), "us");
  report.Add("core.cache_us", per_call_us("core.cache"), "us");
  report.Add("core.cache.recompute_ratio",
             static_cast<double>(totals.dirty_cells) /
                 static_cast<double>(std::max<uint64_t>(1, totals.cells)),
             "ratio");
  report.Add("core.assign_us", per_call_us("core.assign"), "us");
  report.Add("core.dp_ns_per_action",
             assign_ns / static_cast<double>(std::max<uint64_t>(1, totals.dp_actions)),
             "ns");
  report.Add("core.assign.skip_ratio",
             static_cast<double>(totals.skipped_users) /
                 static_cast<double>(std::max<uint64_t>(
                     1, totals.skipped_users + totals.reassigned_users)),
             "ratio");
  report.Add("core.update_us", per_call_us("core.update"), "us");
  report.Add("core.iterations",
             static_cast<double>(totals.iterations) /
                 static_cast<double>(traced_fit_us.size()),
             "count");
  report.Add("exec.dispatch_us", DispatchMicros(datasets[0], config), "us");
  report.Add("trace.coverage", layers_ns / fit_ns, "ratio");
  report.Add("trace.overhead_ratio",
             Median(traced_fit_us) / Median(window.fit_us), "ratio");
  const double dominant_ns =
      cooking ? self_ns("core.cache") + self_ns("core.update") : assign_ns;
  const double dominant_share = dominant_ns / fit_ns;
  const double dominant_floor = cooking ? 0.5 : 2.0 / 3.0;
  report.Add("trace.dominant_share", dominant_share, "ratio");
  report.notes.push_back(
      std::string(cooking ? "cache + update" : "assign") +
      " share of a fit: " + std::to_string(dominant_share) +
      (dominant_share >= dominant_floor ? " (meets " : " (BELOW ") +
      std::to_string(dominant_floor) + ")");
  report.Add("host.steal_ratio", window.host.steal_ratio, "ratio");
  report.Add("host.probe_us", window.host.probe_us, "us");
  std::ofstream(options.out_dir + "/trace-" + options.workload + ".json")
      << ChromeTraceJson(tracer.spans(), 2);
  return report;
}

}  // namespace e2e
