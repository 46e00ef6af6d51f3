// Measurement harness shared by the end-to-end benchmark's workloads:
// percentiles, the seeded open-loop schedule, in-memory span tracing
// with self-time accounting, host-interference probes, CPU and memory
// readouts, and the shadow-server response checker. Everything here
// drives the upskill library only through its public headers.
#ifndef UPSKILL_E2EBENCH_HARNESS_H_
#define UPSKILL_E2EBENCH_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <ctime>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"

namespace e2e {

// ---------------------------------------------------------------- stats

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported; with fewer it is marked missing.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `q` in (0, 1) of `values` (the ceil(q * n)-th
/// smallest). Returns nullopt unless at least kMinSamplesBeyond samples
/// lie above that rank. Infinite samples (failed operations) sort last.
std::optional<double> Percentile(std::vector<double> values, double q);

/// Plain median (mean of the middle pair for even counts); 0 when empty.
/// For small fixed-size repetitions such as set-up time, not latencies.
double Median(std::vector<double> values);

// ------------------------------------------------------------- schedule

/// SplitMix64 step: advances `state` and returns the next 64-bit draw.
uint64_t SplitMix64(uint64_t* state);

/// One scheduled request of an open-loop run: when it is due (relative
/// to the run's start), which user sends it, and a per-request random
/// draw the workload maps to its payload (an item, say).
struct Arrival {
  int64_t due_ns = 0;
  uint32_t user = 0;
  uint64_t draw = 0;
};

/// Poisson arrivals at `rate_per_s` for `seconds`, users uniform over
/// [0, num_users). A pure function of its arguments: the same seed gives
/// the same schedule on every host.
std::vector<Arrival> MakeOpenLoopSchedule(uint64_t seed, double rate_per_s,
                                          double seconds, uint32_t num_users);

/// Timestamps of one open-loop request (steady-clock nanoseconds).
struct RequestTiming {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
};

/// Latency as the user sees it: from when the request was due, not from
/// when the generator got round to sending it, so a stall is charged to
/// every request it delays.
double LatencyMicros(const RequestTiming& timing);

/// How late the generator sent the request (>= 0).
double LatenessMicros(const RequestTiming& timing);

// -------------------------------------------------------------- tracing

/// One closed span. Spans of one operation share `op`; `parent` indexes
/// the enclosing span in the same buffer (-1 for an operation's root).
struct Span {
  uint64_t op = 0;
  int32_t parent = -1;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Keeps spans in memory for the traced run; they are summarised and
/// written out after the timed work ends. Single-threaded: spans wrap
/// calls made from the benchmark's own thread.
class Tracer {
 public:
  /// Starts a new operation; later spans carry its id.
  void BeginOp() { ++op_; }
  int Begin(const char* name);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The tracer of the request ReplayAgainstShadow is replaying, or null
/// when that request is untraced; lets callbacks the library invokes (the
/// observe hook) add their own span.
Tracer* ActiveTracer();

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Per-name totals over a span buffer.
struct SpanTotals {
  double self_ns = 0.0;   // duration minus the part children cover
  double total_ns = 0.0;  // full duration
  uint64_t count = 0;
};

/// A span's self time is its duration minus the union of its children's
/// intervals (clipped to the span), summed per span name.
std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans);

/// Chrome-trace ("traceEvents") JSON of the spans of the first `max_ops`
/// operations, timestamps relative to the first span.
std::string ChromeTraceJson(const std::vector<Span>& spans, uint64_t max_ops);

// --------------------------------------------------- clocks and the host

int64_t NowNs();
/// CPU time of the whole process / of the calling thread, in seconds.
/// Both exclude steal: a descheduled vCPU does not advance them.
double ProcessCpuSeconds();
double ThreadCpuSeconds();
/// Peak resident set size of the process in MiB.
double PeakRssMb();

/// Aggregate CPU tick counters from /proc/stat.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostTicks ReadHostTicks();
/// Steal ticks / all ticks between two readings (0 when unavailable).
double StealRatio(const HostTicks& before, const HostTicks& after);

/// Median wall time of a fixed single-threaded reference computation, in
/// microseconds. It does not depend on the library, so a change in it
/// flags a slower host rather than a slower program.
double ReferenceProbeMicros();

/// CPUs the calling thread may run on (sched_getaffinity), ascending.
std::vector<int> AllowedCpus();

/// One SCHED_IDLE busy loop pinned to each listed CPU, for the life of
/// the object. On a virtual machine an idle vCPU halts, and waking it
/// goes through the hypervisor, taking a time set by the other tenants
/// (it shows as steal): a request that arrives at an idle server, or a
/// pool worker released from a barrier, waits for it. A spinner keeps its
/// vCPU out of halt and yields the moment a normal thread there becomes
/// runnable. Its CPU time is not the program's: subtract CpuSeconds().
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  /// CPU time all spinners have used so far, in seconds.
  double CpuSeconds() const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  std::vector<clockid_t> clocks_;
};

/// Moves the threads `tids` (all together) to the next CPU of `cpus`
/// every `period_ns`, starting with cpus[0], for the life of the object.
/// A guest's vCPUs run at different speeds at any moment: whichever
/// other tenant shares a physical core's caches with a vCPU slows it, and
/// that changes every few seconds, independently per vCPU (an L2-resident
/// scan read 24 or 35 us depending on the vCPU and the second). A thread
/// left on one vCPU for a whole run takes that vCPU's luck; rotating it
/// averages over all of them.
class CpuRotation {
 public:
  CpuRotation(std::vector<pid_t> tids, std::vector<int> cpus,
              int64_t period_ns);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;
};

// ------------------------------------------------------ shadow checking

/// A recorded open-loop request stream: encoded binary request frames and
/// the raw response frames received for them (empty when none arrived).
struct RecordedStream {
  std::vector<std::string> requests;
  std::vector<std::string> responses;
};

/// Outcome of replaying a stream into a shadow server.
struct ShadowReport {
  /// failed[i] is set when request i got no response, an error status, or
  /// a response whose bytes differ from the shadow's.
  std::vector<uint8_t> failed;
  uint64_t mismatches = 0;
  /// In-process wall time of each replayed request (decode -> server ->
  /// encode), nanoseconds; traced[i] marks requests replayed with spans.
  std::vector<double> request_ns;
  std::vector<uint8_t> traced;
};

/// Replays `stream` in order into `shadow` (an in-process serve::Server
/// prepared exactly like the one that answered over the socket) through
/// decode -> server -> encode, and compares every encoded response with
/// the recorded one byte for byte, which covers levels, action counts,
/// picks and difficulties bitwise. When `tracer` is non-null, requests in
/// alternating blocks of `traced_block` are recorded as spans (the other
/// blocks give the untraced per-request time for the overhead ratio).
ShadowReport ReplayAgainstShadow(const RecordedStream& stream,
                                 upskill::serve::Server& shadow,
                                 Tracer* tracer, size_t traced_block = 1024);

}  // namespace e2e

#endif  // UPSKILL_E2EBENCH_HARNESS_H_
