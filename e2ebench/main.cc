// upskill_e2e: the end-to-end benchmark program.
//
//   upskill_e2e --workload <train-cooking|train-beer|serve-observe|
//                           serve-recommend>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--out-dir <dir>] [--commit <id>]
//
// Prints a stamp line, human-readable notes, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The same
// record, with the stamp, is written to <out-dir>/result-<workload>-
// <seed>-<trace>.json. Exits 1 when any output check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.h"
#include "simd/simd.h"
#include "workloads.h"

namespace {

// Per-layer metrics every traced run prints (0 where the workload does not
// exercise the layer), in BENCHMARK.json order.
const std::pair<const char*, const char*> kPerLayer[] = {
      {"core.init_us", "us"},
      {"core.cache_us", "us"},
      {"core.cache.recompute_ratio", "ratio"},
      {"core.assign_us", "us"},
      {"core.dp_ns_per_action", "ns"},
      {"core.assign.skip_ratio", "ratio"},
      {"core.update_us", "us"},
      {"core.iterations", "count"},
      {"exec.dispatch_us", "us"},
      {"net.floor_cpu_us", "us"},
      {"net.rtt_us.p50", "us"},
      {"net.decode_ns", "ns"},
      {"net.encode_ns", "ns"},
      {"serve.session_us", "us"},
      {"serve.rank_us", "us"},
      {"serve.level_us", "us"},
      {"store.ingest_append_ns", "ns"},
      {"serve.sessions", "count"},
      {"net.op_us.p99", "us"},
      {"net.gen_late_us.p99", "us"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.dominant_share", "ratio"},
      {"host.steal_ratio", "ratio"},
      {"host.probe_us", "us"},
};

const char* const kWorkloads[] = {"train-cooking", "train-beer",
                                  "serve-observe", "serve-recommend"};
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "op_us.p50",
                                 "cpu_us_per_op"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "upskill_e2e: %s\nusage: upskill_e2e --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions options;
  std::string commit = "unknown";
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 120.0) {
        return Usage("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || options.workload == name;
  if (!have_workload || !known) return Usage("unknown or missing --workload");
  if (!have_trace) return Usage("missing --trace");
  if (options.out_dir.empty()) options.out_dir = ".";
  std::filesystem::create_directories(options.out_dir);

  const char* force_scalar = std::getenv("UPSKILL_FORCE_SCALAR");
  std::ostringstream stamp;
  stamp << "{\"workload\":" << JsonString(options.workload)
        << ",\"seed\":" << options.seed << ",\"seconds\":" << options.seconds
        << ",\"trace\":" << (options.trace ? 1 : 0)
        << ",\"commit\":" << JsonString(commit)
        << ",\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"simd\":" << JsonString(upskill::simd::BackendName())
        << ",\"UPSKILL_FORCE_SCALAR\":"
        << JsonString(force_scalar == nullptr ? "" : force_scalar)
        << ",\"build_type\":" << JsonString(UPSKILL_E2E_BUILD_TYPE)
        << ",\"compiler\":" << JsonString(__VERSION__) << "}";
  std::printf("stamp %s\n", stamp.str().c_str());
  std::fflush(stdout);

  const bool train = options.workload.rfind("train-", 0) == 0;
  e2e::Report report =
      train ? e2e::RunTrainWorkload(options) : e2e::RunServeWorkload(options);

  // The printed metric set is exactly the mode's list; measured extras
  // (host diagnostics on the untraced run) go to the notes and the record.
  std::vector<e2e::Metric> printed;
  std::vector<e2e::Metric> extras;
  auto find = [&report](const std::string& name) -> const e2e::Metric* {
    for (const e2e::Metric& metric : report.metrics) {
      if (metric.name == name) return &metric;
    }
    return nullptr;
  };
  if (options.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      const e2e::Metric* metric = find(name);
      printed.push_back(metric != nullptr ? *metric
                                          : e2e::Metric{name, 0.0, unit, false});
    }
  } else {
    for (const char* name : kEndToEnd) printed.push_back(*find(name));
  }
  for (const e2e::Metric& metric : report.metrics) {
    bool listed = false;
    for (const e2e::Metric& p : printed) listed = listed || p.name == metric.name;
    if (!listed) extras.push_back(metric);
  }

  const double failed_ratio =
      static_cast<double>(report.failed) /
      static_cast<double>(std::max<uint64_t>(1, report.attempted));
  for (const std::string& note : report.notes) {
    std::printf("note %s\n", note.c_str());
  }
  for (const e2e::Metric& metric : printed) {
    if (metric.missing) {
      std::printf("metric %-28s missing (fewer than %zu samples beyond it)\n",
                  metric.name.c_str(), e2e::kMinSamplesBeyond);
    } else {
      std::printf("metric %-28s %.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  for (const e2e::Metric& metric : extras) {
    std::printf("diagnostic %-24s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("metric %-28s %.6g ratio (failed %llu / attempted %llu)\n",
              "failed_ratio", failed_ratio,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  auto metrics_json = [](const std::vector<e2e::Metric>& metrics) {
    std::string json = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
      json += (i ? ", " : "") + JsonString(metrics[i].name) +
              ": {\"value\": " +
              (metrics[i].missing ? std::string("null")
                                  : JsonNumber(metrics[i].value)) +
              ", \"unit\": " + JsonString(metrics[i].unit) + "}";
    }
    return json + "}";
  };
  const std::string result =
      std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(report.attempted) +
      ", \"failed\": " + std::to_string(report.failed) +
      ", \"metrics\": " + metrics_json(printed) + "}";

  std::ofstream record(options.out_dir + "/result-" + options.workload + "-" +
                       std::to_string(options.seed) + "-" +
                       (options.trace ? "1" : "0") + ".json");
  record << "{\"stamp\": " << stamp.str() << ", \"result\": " << result
         << ", \"failed_ratio\": " << JsonNumber(failed_ratio)
         << ", \"diagnostics\": " << metrics_json(extras) << "}\n";

  std::printf("%s\n", result.c_str());
  return report.correct ? 0 : 1;
}
