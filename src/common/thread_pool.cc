#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "common/logging.h"
#include "obs/metrics.h"

namespace upskill {

namespace {

// Pool telemetry: queue depth after every push/pop and the submit->start
// wait per task. Shared by every pool in the process (the gauge is a
// last-write-wins observation; the histogram aggregates). Registered
// lazily so the registry exists before first use.
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& gauge = obs::MetricsRegistry::Global().GetGauge(
      "upskill_threadpool_queue_depth");
  return gauge;
}

obs::Histogram& TaskWaitHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "upskill_threadpool_task_wait_seconds");
  return histogram;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int count = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  UPSKILL_CHECK(task != nullptr);
  if (obs::MetricsEnabled()) {
    // Wrap to measure queue wait (submit -> first instruction). The
    // wrapper is one extra std::function move per task; tasks here are
    // coarse (a ParallelForChunked worker's whole share), so the cost is
    // noise next to the work itself.
    const auto enqueued = std::chrono::steady_clock::now();
    task = [enqueued, inner = std::move(task)] {
      TaskWaitHistogram().Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        enqueued)
              .count());
      inner();
    };
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    UPSKILL_CHECK(!shutting_down_);
    queue_.push_back(std::move(task));
    ++in_flight_;
    if (obs::MetricsEnabled()) {
      QueueDepthGauge().Set(static_cast<double>(queue_.size()));
    }
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down
      task = std::move(queue_.front());
      queue_.pop_front();
      if (obs::MetricsEnabled()) {
        QueueDepthGauge().Set(static_cast<double>(queue_.size()));
      }
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

int ParallelMaxSlots(const ThreadPool* pool) {
  // Mirrors the inline rule of ParallelForChunked/ParallelFor: a null or
  // one-worker pool runs every loop on the calling thread.
  if (pool == nullptr || pool->num_threads() <= 1) return 1;
  return pool->num_threads() + 1;
}

namespace {

// Shared state of one ParallelForChunked call. Tasks capture it via
// shared_ptr: a straggler task that wakes up after the loop completed
// finds the range exhausted and returns without touching the body, so the
// caller may safely return (and destroy the objects the body references)
// as soon as every *chunk* — not every task — has finished.
struct ParallelLoopState {
  std::function<void(int, size_t, size_t)> chunk_body;
  size_t end = 0;
  size_t chunk_size = 1;
  size_t total_chunks = 0;
  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0};
  std::atomic<int> next_slot{1};  // slot 0 is reserved for the caller
  std::mutex mutex;
  std::condition_variable all_chunks_done;

  // Grabs chunks off the shared counter until the range is exhausted.
  void RunWorker(int slot) {
    size_t done = 0;
    while (true) {
      const size_t chunk_begin =
          next.fetch_add(chunk_size, std::memory_order_relaxed);
      if (chunk_begin >= end) break;
      chunk_body(slot, chunk_begin, std::min(end, chunk_begin + chunk_size));
      ++done;
    }
    if (done == 0) return;
    // Release pairs with the caller's acquire load, publishing the body's
    // writes before the caller can observe completion.
    const size_t finished =
        completed.fetch_add(done, std::memory_order_acq_rel) + done;
    if (finished == total_chunks) {
      // Taking the mutex orders the notify after the caller enters its
      // wait, so the wakeup cannot be lost.
      std::lock_guard<std::mutex> lock(mutex);
      all_chunks_done.notify_all();
    }
  }
};

}  // namespace

void ParallelForChunked(
    ThreadPool* pool, size_t begin, size_t end,
    const std::function<void(int slot, size_t chunk_begin, size_t chunk_end)>&
        chunk_body) {
  if (begin >= end) return;
  const size_t count = end - begin;
  if (pool == nullptr || pool->num_threads() <= 1 || count == 1) {
    chunk_body(0, begin, end);
    return;
  }
  const size_t threads = static_cast<size_t>(pool->num_threads());
  // ~8 chunks per thread keeps skewed per-chunk costs balanced while the
  // one atomic fetch_add per chunk stays amortized.
  const size_t chunk = std::max<size_t>(1, count / (threads * 8));
  auto state = std::make_shared<ParallelLoopState>();
  state->chunk_body = chunk_body;
  state->end = end;
  state->chunk_size = chunk;
  state->total_chunks = (count + chunk - 1) / chunk;
  state->next.store(begin, std::memory_order_relaxed);
  // The caller takes one worker's share itself, so a nested loop makes
  // progress even when every pool worker is occupied.
  const size_t tasks = std::min(threads, state->total_chunks - 1);
  for (size_t t = 0; t < tasks; ++t) {
    pool->Submit([state] {
      state->RunWorker(state->next_slot.fetch_add(1, std::memory_order_relaxed));
    });
  }
  state->RunWorker(0);
  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_chunks_done.wait(lock, [&state] {
    return state->completed.load(std::memory_order_acquire) ==
           state->total_chunks;
  });
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body) {
  if (begin >= end) return;
  if (pool == nullptr || pool->num_threads() <= 1 || end - begin == 1) {
    for (size_t i = begin; i < end; ++i) body(i);
    return;
  }
  ParallelForChunked(pool, begin, end,
                     [&body](int /*slot*/, size_t chunk_begin,
                             size_t chunk_end) {
                       for (size_t i = chunk_begin; i < chunk_end; ++i) {
                         body(i);
                       }
                     });
}

}  // namespace upskill
