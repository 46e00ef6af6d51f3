#include "obs/trace.h"

#include "common/string_util.h"
#include "obs/metrics.h"

namespace upskill {
namespace obs {

namespace {

// Registered once so the metric appears in scrapes (at zero) before the
// first drop ever happens.
Counter& TraceDroppedCounter() {
  static Counter* counter =
      &MetricsRegistry::Global().GetCounter("upskill_trace_dropped_total");
  return *counter;
}

}  // namespace

TraceRecorder& TraceRecorder::Global() {
  // Leaked on purpose, like the metrics registry: span destructors in
  // static-teardown paths must find a live recorder.
  static TraceRecorder* recorder = new TraceRecorder;
  return *recorder;
}

void TraceRecorder::Enable() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void TraceRecorder::Record(const char* name,
                           std::chrono::steady_clock::time_point start,
                           std::chrono::steady_clock::time_point end,
                           int shard, int64_t iteration) {
  TraceEvent event;
  event.name = name;
  event.duration_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  event.thread = CurrentThreadId();
  event.shard = shard;
  event.iteration = iteration;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    TraceDroppedCounter().Increment();
    return;
  }
  event.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  events_.push_back(event);
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void TraceRecorder::SetCapacityForTest(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity < 1 ? 1 : capacity;
}

double Span::StopSeconds() {
  if (stopped_) return elapsed_seconds_;
  stopped_ = true;
  const auto end = std::chrono::steady_clock::now();
  end_ = end;
  elapsed_seconds_ =
      std::chrono::duration<double>(end - start_).count();
  TraceRecorder& recorder = TraceRecorder::Global();
  if (recorder.enabled()) {
    recorder.Record(name_, start_, end, shard_, iteration_);
  }
  return elapsed_seconds_;
}

void ChromeTraceWriter::Add(const char* name, int tid, int64_t start_ns,
                            int64_t duration_ns, const std::string& args) {
  if (out_.back() != '[') out_ += ',';
  out_ += StringPrintf(
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
      "\"ts\":%.3f,\"dur\":%.3f",
      name, tid, static_cast<double>(start_ns) / 1e3,
      static_cast<double>(duration_ns) / 1e3);
  if (!args.empty()) out_ += ",\"args\":{" + args + '}';
  out_ += '}';
}

std::string RenderChromeTrace(const TraceRecorder& recorder) {
  ChromeTraceWriter writer;
  for (const TraceEvent& event : recorder.Events()) {
    std::string args;
    if (event.shard >= 0) args = StringPrintf("\"shard\":%d", event.shard);
    if (event.iteration >= 0) {
      args += StringPrintf(args.empty() ? "\"iteration\":%lld"
                                        : ",\"iteration\":%lld",
                           static_cast<long long>(event.iteration));
    }
    writer.Add(event.name, event.thread, event.start_ns, event.duration_ns,
               args);
  }
  return writer.Finish();
}

}  // namespace obs
}  // namespace upskill
