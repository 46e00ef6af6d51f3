#ifndef UPSKILL_OBS_REQUEST_TRACE_H_
#define UPSKILL_OBS_REQUEST_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace upskill {
namespace obs {

/// Process-unique request id: the high 16 bits derive from the process
/// epoch so ids from successive runs of the same binary don't collide in
/// aggregated traces, the low 48 bits are a monotone counter. Never zero.
uint64_t NextRequestId();

/// One completed request as held by the flight recorder. `kind_name`
/// must have static storage duration (serve uses its static span-name
/// literals) so records are trivially copyable with no per-record
/// allocation.
struct RequestRecord {
  uint64_t id = 0;
  const char* kind_name = "";
  int kind_index = 0;
  /// Steady-clock nanoseconds relative to the recorder's construction.
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  /// Dense process-local thread id (CurrentThreadId()).
  int thread = 0;
  bool error = false;
  bool shed = false;
};

struct FlightRecorderOptions {
  /// Total ring capacity across all stripes (last K completed requests).
  size_t capacity = 4096;
  /// Ring stripes; each completion locks one stripe mutex. Rounded up to
  /// a power of two, capped so every stripe holds at least one record.
  size_t num_stripes = 8;
  /// Tail sampling: how many of the slowest requests to retain per kind,
  /// surviving ring overwrite.
  size_t slowest_per_kind = 8;
  /// Tail sampling: capacity of the retained error/shed ring.
  size_t error_capacity = 256;
  /// Thin the main ring to one record per `sample_every` completions per
  /// stripe. Tail-sampled paths (errors, sheds, slowest) always evaluate
  /// regardless of this setting.
  uint64_t sample_every = 1;
};

/// Point-in-time occupancy counters for /statusz and the stats line.
struct FlightRecorderStats {
  uint64_t recorded = 0;      ///< completions offered to the recorder
  /// Thinned out of the main ring. Derived as offered - kept per
  /// stripe, so it can transiently overcount by the number of Record()
  /// calls in flight; exact once writers are quiescent.
  uint64_t sampled_out = 0;
  uint64_t errors_retained = 0;
  uint64_t sheds_retained = 0;
  size_t ring_size = 0;       ///< records currently in the main ring
  size_t slowest_size = 0;    ///< records in the slowest-per-kind tables
};

/// Fixed-size, lock-striped ring of the last K completed requests plus
/// tail-sampled retention (errors, sheds, and the slowest requests per
/// kind survive ring overwrite). Record() takes one stripe mutex — the
/// stripe is chosen by thread, so concurrent workers rarely contend —
/// and memory is bounded at construction: capacity + error_capacity +
/// kMaxKinds * slowest_per_kind records, no growth afterwards.
///
/// Observation-only by construction: nothing in here is read back by the
/// serving or training paths, so enabling a flight recorder cannot
/// perturb model outputs (tests/obs/determinism_test.cc covers this).
class FlightRecorder {
 public:
  /// Slowest-per-kind tables are fixed at construction; kinds at or
  /// above this index still land in the ring and error retention but do
  /// not get a slowest table. Serve has 9 kinds.
  static constexpr int kMaxKinds = 16;

  explicit FlightRecorder(FlightRecorderOptions options = {});
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record a completed request. Assigns the record's id internally when
  /// `id` is 0. `kind_name` must be a static literal.
  ///
  /// Defined inline on purpose: the steady-state outcome under tail
  /// sampling — not an error or shed, under the slowest-table floor,
  /// thinned out of the main ring — decides and returns right here in
  /// the caller with one relaxed fetch_add and a mask test, never
  /// materializing the record or leaving the caller's code stream. Only
  /// records actually worth keeping pay the out-of-line continuations.
  void Record(int kind_index, const char* kind_name,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end, bool error,
              bool shed, uint64_t id = 0) {
    const int64_t duration_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    // Slowest-per-kind candidacy: lock-free reject against the kind's
    // floor mirror (-1 until the table fills, so everything is a
    // candidate while it is filling; floors round down, so rounding
    // only ever admits more candidates).
    bool slow_candidate = false;
    if (has_slow_tables_ && kind_index >= 0 && kind_index < kMaxKinds) {
      const int32_t floor_us =
          floor_us_[kind_index].load(std::memory_order_relaxed);
      slow_candidate =
          floor_us < 0 || duration_ns > int64_t{floor_us} * 1000;
    }
    if (!error && !shed && !slow_candidate) {
      Stripe& stripe = stripes_[StripeFor()];
      const uint64_t offered =
          stripe.offered.fetch_add(1, std::memory_order_relaxed);
      if (SampledOut(offered)) return;
      KeptRecord(stripe, kind_index, kind_name, start, duration_ns, id);
      return;
    }
    RecordSlow(kind_index, kind_name, start, duration_ns, error, shed,
               slow_candidate, id);
  }

  /// Record a completed request using the *caller's* request sequence
  /// number as the sampling clock instead of the recorder's per-stripe
  /// counters. Serve's front ends already pay for a request counter on
  /// a cache line that is hot in the worker — Execute's served-requests
  /// counter, the TCP worker's per-core sequence — so the steady-state
  /// sampled-out path here costs a mask test of `seq` plus one load of
  /// the read-only floor line: no thread id, no stripe, no atomic RMW.
  /// bench_obs's paired runs put the whole thing — including the
  /// 1-in-16 admitted record — at ~1.5% of serve's ~650ns in-process
  /// path and ~1.6% of the ~370ns pipelined binary TCP path
  /// (single-digit ns per request either way).
  ///
  /// Semantics match Record(): errors, sheds, and slowest candidates
  /// are always admitted; the main ring keeps the 1-in-sample_every
  /// cadence representatives. Cadence reps account for their whole
  /// block (offered += sample_every), so Stats().recorded tracks the
  /// true completion count to within sample_every per in-flight thread
  /// and is exact in sum when the caller's sequence is contiguous.
  void RecordSampled(uint64_t seq, int kind_index, const char* kind_name,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end, bool error,
                     bool shed, uint64_t id = 0) {
    const int64_t duration_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    bool slow_candidate = false;
    if (has_slow_tables_ && kind_index >= 0 && kind_index < kMaxKinds) {
      const int32_t floor_us =
          floor_us_[kind_index].load(std::memory_order_relaxed);
      slow_candidate =
          floor_us < 0 || duration_ns > int64_t{floor_us} * 1000;
    }
    const bool cadence = !SampledOut(seq);
    if (!cadence && !error && !shed && !slow_candidate) return;
    RecordAdmitted(cadence, kind_index, kind_name, start, duration_ns,
                   error, shed, slow_candidate, id);
  }

  /// Main ring contents, chronological by start time.
  std::vector<RequestRecord> Recent() const;
  /// Tail-sampled retention: errors/sheds ring + slowest-per-kind
  /// tables, chronological by start time, de-duplicated by record id
  /// against `recent` when merging is wanted (RenderFlightRecorderJson
  /// does this).
  std::vector<RequestRecord> Retained() const;

  FlightRecorderStats Stats() const;

  const FlightRecorderOptions& options() const { return options_; }
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

 private:
  struct alignas(64) Stripe {
    /// Completions seen including thinned ones. Atomic (no stripe
    /// mutex) and first in the struct so the sampled-out fast path
    /// touches only this stripe's leading cache line.
    std::atomic<uint64_t> offered{0};
    uint64_t head = 0;                // completions pushed (under mutex)
    mutable std::mutex mutex;
    std::vector<RequestRecord> ring;  // fixed size after construction
  };

  struct SlowTable {
    mutable std::mutex mutex;
    std::vector<RequestRecord> rows;  // fixed size slowest_per_kind
    size_t used = 0;                  // guarded by mutex
  };

  size_t StripeFor() const {
    return static_cast<size_t>(CurrentThreadId()) & stripe_mask_;
  }
  /// Thinning decision for the `offered`-th completion of a stripe: a
  /// mask test when sample_every is a power of two (always, for the 1 /
  /// 16 / 4096 style values anyone configures), a modulo otherwise.
  bool SampledOut(uint64_t offered) const {
    return sample_pow2_ ? (offered & sample_mask_) != 0
                        : offered % options_.sample_every != 0;
  }
  /// Out-of-line continuation of Record() for a completion the fast
  /// path kept for the main ring: materializes the record and writes
  /// `stripe`, whose offered counter Record() already bumped.
  void KeptRecord(Stripe& stripe, int kind_index, const char* kind_name,
                  std::chrono::steady_clock::time_point start,
                  int64_t duration_ns, uint64_t id);
  /// Out-of-line continuation of Record() for errors, sheds, and
  /// slowest-table candidates: tail retention plus the main ring.
  void RecordSlow(int kind_index, const char* kind_name,
                  std::chrono::steady_clock::time_point start,
                  int64_t duration_ns, bool error, bool shed,
                  bool slow_candidate, uint64_t id);
  /// Out-of-line continuation of RecordSampled() for every admitted
  /// completion. A cadence rep goes to the main ring and accounts for
  /// its whole sampling block (offered += sample_every); non-cadence
  /// admissions (errors, sheds, slowest candidates between cadence
  /// points) go to tail retention only.
  void RecordAdmitted(bool cadence, int kind_index, const char* kind_name,
                      std::chrono::steady_clock::time_point start,
                      int64_t duration_ns, bool error, bool shed,
                      bool slow_candidate, uint64_t id);
  /// Push into the calling thread's ring stripe, honoring sample_every.
  void MainRingRecord(const RequestRecord& record);
  /// The record every continuation above keeps (id assigned when 0).
  RequestRecord MakeRecord(int kind_index, const char* kind_name,
                           std::chrono::steady_clock::time_point start,
                           int64_t duration_ns, bool error, bool shed,
                           uint64_t id) const;
  /// Tail retention: the error/shed ring, then the kind's slowest table
  /// and its lock-free floor mirror when `slow_candidate`.
  void RetainTail(const RequestRecord& record, bool slow_candidate);
  /// Writes `record` into `stripe`'s ring slot under the stripe mutex.
  void PushRing(Stripe& stripe, const RequestRecord& record);

  // Fast-path members first: the sampled-out steady state reads the
  // sampling config, one floor, and the stripe base/mask — laid out
  // here so they share the object's leading cache lines — then writes
  // one relaxed counter in its thread's stripe.
  bool sample_pow2_ = true;
  bool has_slow_tables_ = true;  // slowest_per_kind > 0
  uint64_t sample_mask_ = 0;
  size_t stripe_mask_ = 0;
  std::unique_ptr<Stripe[]> stripes_;  // stripe_mask_ + 1 entries
  /// Per-kind slowest-table admission floors in microseconds, rounded
  /// down (so a stale or rounded floor only ever admits more
  /// candidates); -1 until the kind's table first fills. Mirrors the
  /// table contents, updated under the table mutex, read lock-free.
  std::atomic<int32_t> floor_us_[kMaxKinds];

  FlightRecorderOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  size_t stripe_capacity_ = 0;

  mutable std::mutex error_mutex_;
  std::vector<RequestRecord> error_ring_;  // fixed size error_capacity
  uint64_t error_head_ = 0;
  std::atomic<uint64_t> errors_retained_{0};
  std::atomic<uint64_t> sheds_retained_{0};

  SlowTable slow_[kMaxKinds];
};

/// Chrome about://tracing JSON ("traceEvents", ph:"X") over the merged
/// ring + retained records, de-duplicated by id, with request id, kind,
/// error/shed/retained flags in args. Loadable in Perfetto; also the
/// /tracez payload.
std::string RenderFlightRecorderJson(const FlightRecorder& recorder);

}  // namespace obs
}  // namespace upskill

#endif  // UPSKILL_OBS_REQUEST_TRACE_H_
