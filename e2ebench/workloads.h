// The benchmark's workloads. Each runner builds its inputs from the seed,
// measures for the requested time, checks every output, and returns the
// metrics of its mode: end-to-end metrics untraced, per-layer metrics
// from the separate traced run.
#ifndef UPSKILL_E2EBENCH_WORKLOADS_H_
#define UPSKILL_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/skill_model.h"
#include "data/dataset.h"

namespace e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the result record, Chrome traces and scratch files.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// A percentile without enough samples beyond it (reported as null).
  bool missing = false;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (checks, shares).
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit), false});
  }
  void Fail(std::string why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

/// Table I-sized simulated Cooking (true) or Beer (false) dataset.
upskill::Dataset GenerateDomain(bool cooking, uint64_t seed);
/// The fit configuration of train-cooking (pool backend, 2 threads) or
/// train-beer (serial backend); serve workloads train with the former.
upskill::SkillModelConfig FitConfig(bool cooking);

Report RunTrainWorkload(const RunOptions& options);
Report RunServeWorkload(const RunOptions& options);

/// Host-interference diagnostics taken around every timed window.
struct HostWindow {
  double steal_ratio = 0.0;
  double probe_us = 0.0;
};

}  // namespace e2e

#endif  // UPSKILL_E2EBENCH_WORKLOADS_H_
