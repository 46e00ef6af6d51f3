#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>

#include "net/frame.h"

namespace e2e {

namespace us = upskill::serve;
namespace un = upskill::net;

std::optional<double> Percentile(std::vector<double> values, double q) {
  const size_t n = values.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0 || n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<Arrival> MakeOpenLoopSchedule(uint64_t seed, double rate_per_s,
                                          double seconds, uint32_t num_users) {
  std::vector<Arrival> schedule;
  if (rate_per_s <= 0.0 || seconds <= 0.0 || num_users == 0) return schedule;
  schedule.reserve(static_cast<size_t>(rate_per_s * seconds * 1.1) + 16);
  uint64_t state = seed ^ 0x6F70656E6C6F6F70ull;  // "openloop"
  const double horizon_ns = seconds * 1e9;
  double t_ns = 0.0;
  for (;;) {
    // Inverse-CDF exponential gap from a 53-bit uniform in (0, 1].
    const double u =
        (static_cast<double>(SplitMix64(&state) >> 11) + 1.0) * 0x1.0p-53;
    t_ns += -std::log(u) / rate_per_s * 1e9;
    if (t_ns >= horizon_ns) break;
    Arrival arrival;
    arrival.due_ns = static_cast<int64_t>(t_ns);
    arrival.user = static_cast<uint32_t>(SplitMix64(&state) % num_users);
    arrival.draw = SplitMix64(&state);
    schedule.push_back(arrival);
  }
  return schedule;
}

double LatencyMicros(const RequestTiming& timing) {
  return static_cast<double>(timing.done_ns - timing.due_ns) * 1e-3;
}

double LatenessMicros(const RequestTiming& timing) {
  return static_cast<double>(std::max<int64_t>(0, timing.sent_ns - timing.due_ns)) *
         1e-3;
}

namespace {
thread_local Tracer* active_tracer = nullptr;
}  // namespace

Tracer* ActiveTracer() { return active_tracer; }

int Tracer::Begin(const char* name) {
  Span span;
  span.op = op_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::map<std::string, SpanTotals> totals;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    intervals.clear();
    for (size_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = std::numeric_limits<int64_t>::min();
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    SpanTotals& total = totals[span.name];
    total.self_ns += duration - static_cast<double>(covered);
    total.total_ns += duration;
    ++total.count;
  }
  return totals;
}

std::string ChromeTraceJson(const std::vector<Span>& spans, uint64_t max_ops) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  const uint64_t first_op = spans.empty() ? 0 : spans.front().op;
  bool first = true;
  char buffer[320];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.op - first_op >= max_ops) break;
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"id\":%zu,"
                  "\"parent\":%d}}",
                  first ? "" : ",", span.name,
                  static_cast<double>(span.start_ns - origin) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                  static_cast<unsigned long long>(span.op), i, span.parent);
    out << buffer;
    first = false;
  }
  out << "],\"displayTimeUnit\":\"ns\"}\n";
  return out.str();
}

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal (guest time is already
  // included in user and nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) return HostTicks{};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealRatio(const HostTicks& before, const HostTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      ::sched_setaffinity(0, sizeof(set), &set);
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      // No pause instruction: on KVM a pause loop triggers pause-loop
      // exits, and the host then deschedules the vCPU the spinner guards.
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
    clockid_t clock = -1;
    if (::pthread_getcpuclockid(threads_.back().native_handle(), &clock) != 0) {
      clock = -1;
    }
    clocks_.push_back(clock);
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads_) thread.join();
}

double IdleSpinners::CpuSeconds() const {
  double seconds = 0.0;
  for (clockid_t clock : clocks_) {
    if (clock != -1) seconds += ClockSeconds(clock);
  }
  return seconds;
}

CpuRotation::CpuRotation(std::vector<pid_t> tids, std::vector<int> cpus,
                         int64_t period_ns) {
  auto place = [tids](int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    for (pid_t tid : tids) ::sched_setaffinity(tid, sizeof(set), &set);
  };
  if (tids.empty() || cpus.empty()) return;
  place(cpus[0]);
  if (cpus.size() < 2) return;
  thread_ = std::thread([this, place, cpus, period_ns] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (size_t next = 1;; next = (next + 1) % cpus.size()) {
      if (wake_.wait_for(lock, std::chrono::nanoseconds(period_ns),
                         [this] { return stop_; })) {
        return;
      }
      place(cpus[next]);
    }
  });
}

CpuRotation::~CpuRotation() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

double ReferenceProbeMicros() {
  constexpr int kRepetitions = 21;
  std::vector<double> micros;
  micros.reserve(kRepetitions);
  volatile double sink = 0.0;
  for (int r = 0; r < kRepetitions; ++r) {
    const int64_t start = NowNs();
    uint64_t x = 0x2545F4914F6CDD1Dull + static_cast<uint64_t>(r);
    double acc = 0.0;
    for (int i = 0; i < 200000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    sink = sink + acc;
    micros.push_back(static_cast<double>(NowNs() - start) * 1e-3);
  }
  return Median(std::move(micros));
}

namespace {

// Executes one decoded request on the shadow server the way the TCP
// front end's binary path does, encoding the response into `out`. A
// recommend is split into its two public steps, Server::CurrentLevel and
// ServingModel::Recommend, so each gets its own span; the response bytes
// are those of Server::Recommend, which the comparison proves.
void ExecuteOnShadow(const us::ServeRequest& request, us::Server& shadow,
                     const us::ServingModel& model, Tracer* tracer,
                     std::string* out) {
  using Kind = us::ServeRequest::Kind;
  switch (request.kind) {
    case Kind::kObserve: {
      const upskill::Result<us::SessionLevel> level = [&] {
        ScopedSpan span(tracer, "serve.session");
        return shadow.Observe(request.user, request.item, request.time,
                              request.has_time);
      }();
      ScopedSpan span(tracer, "net.encode");
      if (level.ok()) {
        un::EncodeLevelResponse(level.value(), out);
      } else {
        un::EncodeErrorResponse(level.status(), out);
      }
      return;
    }
    case Kind::kLevel:
    case Kind::kRecommend: {
      const upskill::Result<us::SessionLevel> level = [&] {
        ScopedSpan span(tracer, "serve.level");
        return shadow.CurrentLevel(request.user);
      }();
      if (!level.ok()) {
        ScopedSpan span(tracer, "net.encode");
        un::EncodeErrorResponse(level.status(), out);
        return;
      }
      if (request.kind == Kind::kLevel) {
        ScopedSpan span(tracer, "net.encode");
        un::EncodeLevelResponse(level.value(), out);
        return;
      }
      upskill::UpskillRecommendationOptions options;
      options.max_results = request.top_k;
      options.stretch = request.stretch;
      const upskill::Result<std::vector<upskill::UpskillRecommendation>> picks =
          [&] {
            ScopedSpan span(tracer, "serve.rank");
            return model.Recommend(
                std::min(level.value().level, model.num_levels()), options);
          }();
      ScopedSpan span(tracer, "net.encode");
      if (picks.ok()) {
        un::EncodeRecommendResponse(picks.value(), out);
      } else {
        un::EncodeErrorResponse(picks.status(), out);
      }
      return;
    }
    case Kind::kDifficulty: {
      const upskill::Result<double> difficulty = [&] {
        ScopedSpan span(tracer, "serve.difficulty");
        return shadow.ItemDifficulty(request.item);
      }();
      ScopedSpan span(tracer, "net.encode");
      if (difficulty.ok()) {
        un::EncodeDifficultyResponse(difficulty.value(), out);
      } else {
        un::EncodeErrorResponse(difficulty.status(), out);
      }
      return;
    }
    default:
      un::EncodeErrorResponse(
          upskill::Status::InvalidArgument("not replayed by the benchmark"),
          out);
      return;
  }
}

}  // namespace

ShadowReport ReplayAgainstShadow(const RecordedStream& stream,
                                 us::Server& shadow, Tracer* tracer,
                                 size_t traced_block) {
  const size_t n = stream.requests.size();
  ShadowReport report;
  report.failed.assign(n, 0);
  report.request_ns.assign(n, 0.0);
  report.traced.assign(n, 0);
  const std::shared_ptr<const us::ServingModel> model = shadow.model();
  std::string encoded;
  for (size_t i = 0; i < n; ++i) {
    Tracer* span_tracer =
        (tracer != nullptr && traced_block > 0 && (i / traced_block) % 2 == 1)
            ? tracer
            : nullptr;
    report.traced[i] = span_tracer != nullptr;
    active_tracer = span_tracer;
    encoded.clear();
    bool decoded_ok = false;
    const int64_t start = NowNs();
    if (span_tracer != nullptr) span_tracer->BeginOp();
    {
      ScopedSpan root(span_tracer, "serve.request");
      const std::string& frame = stream.requests[i];
      un::DecodedRequest decoded;
      std::string error;
      const un::DecodeStatus status = [&] {
        ScopedSpan span(span_tracer, "net.decode");
        return un::DecodeRequest(frame.data(), frame.size(),
                                 un::kDefaultMaxPayloadBytes, &decoded,
                                 &error);
      }();
      decoded_ok = status == un::DecodeStatus::kFrame &&
                   decoded.frame_bytes == frame.size();
      if (decoded_ok) {
        ExecuteOnShadow(decoded.request, shadow, *model, span_tracer, &encoded);
      }
    }
    report.request_ns[i] = static_cast<double>(NowNs() - start);
    active_tracer = nullptr;
    const std::string& received = stream.responses[i];
    const bool mismatch = !received.empty() && received != encoded;
    if (mismatch) ++report.mismatches;
    report.failed[i] = !decoded_ok || received.empty() || mismatch ||
                       static_cast<uint8_t>(received[1]) != 0;
  }
  return report;
}

}  // namespace e2e
