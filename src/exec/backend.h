#ifndef UPSKILL_EXEC_BACKEND_H_
#define UPSKILL_EXEC_BACKEND_H_

#include <cstddef>
#include <functional>
#include <memory>

#include "common/thread_pool.h"

namespace upskill {
namespace exec {

/// Abstract execution engine behind exec::MapShards. A backend owns the
/// *scheduling* of shard bodies and nothing else: every caller already
/// reduces per-element (ReduceOrderedSum) or with exact integer counts
/// merged in fixed shard order, so which thread runs which shard — the
/// only thing a backend controls — can never change results. That is
/// the determinism contract: outputs are bitwise identical across
/// backends, enforced by the backend sweep in tests/exec.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Runs body(shard) exactly once for every shard in [0, num_shards).
  /// Non-virtual on purpose: the entry point guards degenerate counts
  /// (num_shards <= 0 returns without dispatching, so a degenerate
  /// ShardPlan over an empty mapped store cannot reach any
  /// implementation) and owns the obs instrumentation — per-shard
  /// "exec/shard" spans, the slowest/mean imbalance gauge, and the
  /// per-backend upskill_exec_shard_seconds histogram — so every
  /// implementation inherits both.
  void Run(int num_shards, const std::function<void(int shard)>& body);

  /// Runs body(i) exactly once for every i in [begin, end): the
  /// index-loop shape of the audited cell/item/block ParallelFor sites
  /// in core/trainer.cc and core/skill_model.cc. Chunking is
  /// implementation-defined; an empty range returns without
  /// dispatching. Not instrumented (the migrated sites never were).
  void RunIndices(size_t begin, size_t end,
                  const std::function<void(size_t index)>& body);

  /// Stable identifier ("serial", "pool"); labels metrics and names the
  /// backend in CreateBackend.
  virtual const char* name() const = 0;

  /// Maximum concurrent execution slots, counting the calling thread;
  /// always >= 1. ResolveShardCount sizes automatic shard counts from
  /// this.
  virtual int concurrency() const = 0;

 protected:
  /// Scheduling core: dispatch body over [0, num_shards). Only called
  /// with num_shards >= 1.
  virtual void RunShards(int num_shards,
                         const std::function<void(int shard)>& body) = 0;

  /// Index-loop core. Only called with a non-empty range.
  virtual void RunIndexLoop(size_t begin, size_t end,
                            const std::function<void(size_t index)>& body) = 0;
};

/// Inline, pool-free execution: body runs on the calling thread in
/// shard order.
class SerialBackend : public Backend {
 public:
  /// Shared process-wide instance (stateless; safe from any thread).
  static SerialBackend* Get();

  const char* name() const override { return "serial"; }
  int concurrency() const override { return 1; }

 protected:
  void RunShards(int num_shards,
                 const std::function<void(int shard)>& body) override;
  void RunIndexLoop(size_t begin, size_t end,
                    const std::function<void(size_t index)>& body) override;
};

/// Owns a ThreadPool and schedules through ParallelFor: shards and
/// indices are claimed dynamically by the workers and the calling
/// thread, with a per-call completion latch (so nested Runs are safe).
class ThreadPoolBackend : public Backend {
 public:
  /// Owns a new pool with num_threads workers. At num_threads <= 1 it
  /// owns none: ParallelFor would run a one-worker pool inline on the
  /// caller anyway, so that worker would only idle.
  explicit ThreadPoolBackend(int num_threads);

  const char* name() const override { return "pool"; }
  int concurrency() const override { return ParallelMaxSlots(pool_.get()); }

 protected:
  void RunShards(int num_shards,
                 const std::function<void(int shard)>& body) override;
  void RunIndexLoop(size_t begin, size_t end,
                    const std::function<void(size_t index)>& body) override;

 private:
  std::unique_ptr<ThreadPool> pool_;  // null: run inline
};

/// The one meaning of a driver's Backend* argument: `backend` when
/// non-null, otherwise `installed` (the backend installed in the
/// driver's ExecContext or Server), otherwise the shared SerialBackend.
Backend* ResolveBackend(Backend* backend, Backend* installed = nullptr);

/// The backend one of the paper's parallel axes (ParallelOptions users,
/// levels, features) runs on: `backend` when the axis is enabled and the
/// backend has more than one slot, the shared SerialBackend otherwise.
Backend* ForAxis(Backend* backend, bool axis_enabled);

}  // namespace exec
}  // namespace upskill

#endif  // UPSKILL_EXEC_BACKEND_H_
