#ifndef UPSKILL_OBS_TRACE_H_
#define UPSKILL_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace upskill {
namespace obs {

/// One completed span. `name` must be a string with static storage
/// duration (span call sites use literals) so recording never copies or
/// allocates per-character. Times are nanoseconds on the steady clock,
/// relative to the recorder's Enable() epoch.
struct TraceEvent {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  /// Dense process-local thread id (0 = first thread that recorded).
  int thread = 0;
  /// Shard index for shard-scoped spans, -1 otherwise.
  int shard = -1;
  /// Training iteration for trainer-phase spans, -1 otherwise.
  int64_t iteration = -1;
};

/// Dense small id for the calling thread, assigned on first use. Shared
/// with nothing else; used so trace rows group by worker rather than by
/// an opaque pthread handle. Inline: the flight recorder's sampled-out
/// fast path calls this once per request, so it must cost a TLS load
/// and an init-guard test, not an out-of-line call.
inline int CurrentThreadId() {
  static std::atomic<int> next_thread_id{0};
  thread_local const int id =
      next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Collects phase-scoped spans while enabled. Spans are coarse by design
/// (trainer phases, per-shard map tasks — not per-request), so a mutex
/// push per completed span is cheap; the recorder is disabled by default
/// and every span call site checks the flag with one relaxed load before
/// touching the clock. Capacity is bounded: past kMaxEvents spans are
/// counted but dropped, so a forgotten-enabled recorder cannot eat the
/// heap.
class TraceRecorder {
 public:
  static constexpr size_t kMaxEvents = 1 << 20;

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Process-wide recorder used by UPSKILL_SPAN.
  static TraceRecorder& Global();

  /// Clears previous events, stamps the epoch, starts recording.
  void Enable();
  /// Stops recording; collected events remain readable.
  void Disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void Record(const char* name,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end, int shard,
              int64_t iteration);

  /// Copy of the collected events (chronological by completion).
  std::vector<TraceEvent> Events() const;
  /// Spans rejected because the buffer was full. Also exported as the
  /// `upskill_trace_dropped_total` counter.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Shrinks the event capacity so tests can exercise the overflow path
  /// without recording a million spans. Clamped to at least 1; resets to
  /// kMaxEvents by passing kMaxEvents.
  void SetCapacityForTest(size_t capacity);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
  size_t capacity_ = kMaxEvents;  // guarded by mutex_
  std::chrono::steady_clock::time_point epoch_{};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// RAII phase span. Always measures (two steady-clock reads bracketing
/// the scope) and hands the elapsed seconds back through StopSeconds(),
/// so instrumented code can feed latency histograms and the trainer's
/// seconds readouts from the same clock reads; the trace event itself is
/// only recorded when the global recorder is enabled.
class Span {
 public:
  explicit Span(const char* name, int shard = -1, int64_t iteration = -1)
      : name_(name),
        shard_(shard),
        iteration_(iteration),
        start_(std::chrono::steady_clock::now()) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (!stopped_) StopSeconds();
  }

  /// Ends the span (records it if tracing is enabled) and returns the
  /// elapsed seconds. Idempotent: later calls return the first elapsed.
  double StopSeconds();

  /// Steady-clock instant the span opened (for callers that also feed a
  /// flight recorder from the same clock reads).
  std::chrono::steady_clock::time_point start_time() const { return start_; }
  /// Steady-clock instant StopSeconds() first ran (the span's end); the
  /// epoch until then. Lets flight-recorder callers reuse the span's own
  /// clock reads instead of reconstructing the end from elapsed seconds.
  std::chrono::steady_clock::time_point stop_time() const { return end_; }

 private:
  const char* name_;
  int shard_;
  int64_t iteration_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point end_{};
  bool stopped_ = false;
  double elapsed_seconds_ = 0.0;
};

/// Builds Chrome about://tracing JSON ({"traceEvents":[...]}) one
/// complete ("ph":"X") event at a time, timestamps in microseconds. `args`
/// is the inside of the event's args object, left out when empty. The one
/// renderer behind RenderChromeTrace and the flight recorder's /tracez.
class ChromeTraceWriter {
 public:
  void Add(const char* name, int tid, int64_t start_ns, int64_t duration_ns,
           const std::string& args);
  std::string Finish() { return std::move(out_) + "]}\n"; }

 private:
  std::string out_ = "{\"traceEvents\":[";
};

/// The recorder's events as Chrome trace JSON: thread ids as tids,
/// shard/iteration in args. Load via chrome://tracing or Perfetto.
std::string RenderChromeTrace(const TraceRecorder& recorder);

}  // namespace obs
}  // namespace upskill

/// Scoped span over the rest of the enclosing block:
///   UPSKILL_SPAN("assignment");
/// Shard- and iteration-scoped variants thread the extra ids into the
/// trace event. The variable name embeds the line number so two spans can
/// coexist in one scope.
#define UPSKILL_SPAN(name) \
  ::upskill::obs::Span UPSKILL_SPAN_CONCAT_(upskill_span_, __LINE__)(name)
#define UPSKILL_SPAN_SHARD(name, shard)                                 \
  ::upskill::obs::Span UPSKILL_SPAN_CONCAT_(upskill_span_, __LINE__)(   \
      name, (shard))
#define UPSKILL_SPAN_CONCAT_(a, b) UPSKILL_SPAN_CONCAT_IMPL_(a, b)
#define UPSKILL_SPAN_CONCAT_IMPL_(a, b) a##b

#endif  // UPSKILL_OBS_TRACE_H_
