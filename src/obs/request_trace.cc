#include "obs/request_trace.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"
#include "obs/trace.h"

namespace upskill {
namespace obs {

namespace {

uint64_t ProcessEpochBits() {
  // Captured once per process; seconds-granularity wall time is enough
  // to keep ids from successive runs distinct.
  static const uint64_t bits = [] {
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    const uint64_t seconds =
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::seconds>(now).count());
    return (seconds & 0xFFFFu) << 48;
  }();
  return bits;
}

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

uint64_t NextRequestId() {
  static std::atomic<uint64_t> next{0};
  const uint64_t low =
      (next.fetch_add(1, std::memory_order_relaxed) + 1) & 0xFFFFFFFFFFFFull;
  return ProcessEpochBits() | low;
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {
  if (options_.capacity < 1) options_.capacity = 1;
  if (options_.num_stripes < 1) options_.num_stripes = 1;
  if (options_.sample_every < 1) options_.sample_every = 1;
  sample_pow2_ = (options_.sample_every & (options_.sample_every - 1)) == 0;
  sample_mask_ = options_.sample_every - 1;
  has_slow_tables_ = options_.slowest_per_kind > 0;
  size_t stripes = RoundUpPow2(options_.num_stripes);
  while (stripes > 1 && options_.capacity / stripes == 0) stripes >>= 1;
  options_.num_stripes = stripes;
  stripe_capacity_ = options_.capacity / stripes;
  if (stripe_capacity_ < 1) stripe_capacity_ = 1;
  stripe_mask_ = stripes - 1;
  stripes_ = std::make_unique<Stripe[]>(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_[i].ring.resize(stripe_capacity_);
  }
  for (auto& floor : floor_us_) {
    floor.store(-1, std::memory_order_relaxed);
  }
  error_ring_.resize(options_.error_capacity);
  for (auto& table : slow_) {
    table.rows.resize(options_.slowest_per_kind);
  }
}

RequestRecord FlightRecorder::MakeRecord(
    int kind_index, const char* kind_name,
    std::chrono::steady_clock::time_point start, int64_t duration_ns,
    bool error, bool shed, uint64_t id) const {
  RequestRecord record;
  record.id = id != 0 ? id : NextRequestId();
  record.kind_name = kind_name;
  record.kind_index = kind_index;
  record.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  record.duration_ns = duration_ns;
  record.thread = CurrentThreadId();
  record.error = error;
  record.shed = shed;
  return record;
}

void FlightRecorder::RetainTail(const RequestRecord& record,
                                bool slow_candidate) {
  // Errors and sheds always survive, regardless of main-ring thinning or
  // overwrite.
  if (record.error || record.shed) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_ring_.empty()) {
      error_ring_[error_head_ % error_ring_.size()] = record;
      ++error_head_;
    }
    if (record.error) errors_retained_.fetch_add(1, std::memory_order_relaxed);
    if (record.shed) sheds_retained_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!slow_candidate) return;

  // Slowest-per-kind insert under the table mutex; the candidacy check
  // re-runs against the rows themselves, so a stale lock-free floor only
  // costs a lock acquisition, never a wrong insert. A rejected candidate
  // leaves the rows, and so the floor, unchanged.
  SlowTable& table = slow_[record.kind_index];
  std::lock_guard<std::mutex> lock(table.mutex);
  if (table.used < table.rows.size()) {
    table.rows[table.used++] = record;
  } else {
    size_t min_index = 0;
    for (size_t i = 1; i < table.rows.size(); ++i) {
      if (table.rows[i].duration_ns < table.rows[min_index].duration_ns) {
        min_index = i;
      }
    }
    if (record.duration_ns <= table.rows[min_index].duration_ns) return;
    table.rows[min_index] = record;
  }
  if (table.used == table.rows.size()) {
    int64_t new_min = table.rows[0].duration_ns;
    for (size_t i = 1; i < table.used; ++i) {
      new_min = std::min(new_min, table.rows[i].duration_ns);
    }
    const int64_t new_floor_us = new_min / 1000;
    floor_us_[record.kind_index].store(
        new_floor_us > INT32_MAX ? INT32_MAX
                                 : static_cast<int32_t>(new_floor_us),
        std::memory_order_relaxed);
  }
}

void FlightRecorder::PushRing(Stripe& stripe, const RequestRecord& record) {
  std::lock_guard<std::mutex> lock(stripe.mutex);
  stripe.ring[stripe.head % stripe_capacity_] = record;
  ++stripe.head;
}

void FlightRecorder::KeptRecord(Stripe& stripe, int kind_index,
                                const char* kind_name,
                                std::chrono::steady_clock::time_point start,
                                int64_t duration_ns, uint64_t id) {
  PushRing(stripe, MakeRecord(kind_index, kind_name, start, duration_ns,
                              /*error=*/false, /*shed=*/false, id));
}

void FlightRecorder::RecordSlow(int kind_index, const char* kind_name,
                                std::chrono::steady_clock::time_point start,
                                int64_t duration_ns, bool error, bool shed,
                                bool slow_candidate, uint64_t id) {
  const RequestRecord record =
      MakeRecord(kind_index, kind_name, start, duration_ns, error, shed, id);
  RetainTail(record, slow_candidate);
  MainRingRecord(record);
}

void FlightRecorder::RecordAdmitted(bool cadence, int kind_index,
                                    const char* kind_name,
                                    std::chrono::steady_clock::time_point start,
                                    int64_t duration_ns, bool error, bool shed,
                                    bool slow_candidate, uint64_t id) {
  const RequestRecord record =
      MakeRecord(kind_index, kind_name, start, duration_ns, error, shed, id);
  RetainTail(record, slow_candidate);
  // The cadence rep represents its whole sampling block in the main
  // ring and in the offered count; non-cadence admissions live in tail
  // retention only, so the block accounting stays sum-exact.
  if (!cadence) return;
  Stripe& stripe = stripes_[StripeFor()];
  stripe.offered.fetch_add(options_.sample_every, std::memory_order_relaxed);
  PushRing(stripe, record);
}

void FlightRecorder::MainRingRecord(const RequestRecord& record) {
  Stripe& stripe = stripes_[StripeFor()];
  const uint64_t offered =
      stripe.offered.fetch_add(1, std::memory_order_relaxed);
  if (SampledOut(offered)) return;
  PushRing(stripe, record);
}

std::vector<RequestRecord> FlightRecorder::Recent() const {
  std::vector<RequestRecord> out;
  out.reserve(options_.capacity);
  for (size_t i = 0; i <= stripe_mask_; ++i) {
    const Stripe& stripe = stripes_[i];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    const uint64_t count =
        std::min<uint64_t>(stripe.head, stripe_capacity_);
    for (uint64_t j = 0; j < count; ++j) {
      out.push_back(stripe.ring[(stripe.head - count + j) % stripe_capacity_]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return out;
}

std::vector<RequestRecord> FlightRecorder::Retained() const {
  std::vector<RequestRecord> out;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    const uint64_t count =
        std::min<uint64_t>(error_head_, error_ring_.size());
    for (uint64_t i = 0; i < count; ++i) {
      out.push_back(
          error_ring_[(error_head_ - count + i) % error_ring_.size()]);
    }
  }
  for (const SlowTable& table : slow_) {
    std::lock_guard<std::mutex> lock(table.mutex);
    for (size_t i = 0; i < table.used; ++i) {
      out.push_back(table.rows[i]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return out;
}

FlightRecorderStats FlightRecorder::Stats() const {
  FlightRecorderStats stats;
  uint64_t kept = 0;
  for (size_t i = 0; i <= stripe_mask_; ++i) {
    const Stripe& stripe = stripes_[i];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stats.recorded += stripe.offered.load(std::memory_order_relaxed);
    kept += stripe.head;
    stats.ring_size +=
        static_cast<size_t>(std::min<uint64_t>(stripe.head, stripe_capacity_));
  }
  // Every offer either pushed a record (head) or was thinned; offered is
  // bumped before head, so the difference never goes negative.
  stats.sampled_out = stats.recorded - kept;
  stats.errors_retained = errors_retained_.load(std::memory_order_relaxed);
  stats.sheds_retained = sheds_retained_.load(std::memory_order_relaxed);
  for (const SlowTable& table : slow_) {
    std::lock_guard<std::mutex> lock(table.mutex);
    stats.slowest_size += table.used;
  }
  return stats;
}

std::string RenderFlightRecorderJson(const FlightRecorder& recorder) {
  const std::vector<RequestRecord> recent = recorder.Recent();
  const std::vector<RequestRecord> retained = recorder.Retained();
  std::unordered_set<uint64_t> seen;
  seen.reserve(recent.size() + retained.size());

  ChromeTraceWriter writer;
  const auto append = [&](const RequestRecord& record, bool is_retained) {
    if (!seen.insert(record.id).second) return;
    writer.Add(record.kind_name, record.thread, record.start_ns,
               record.duration_ns,
               StringPrintf("\"request_id\":%llu,\"kind\":%d,\"error\":%s,"
                            "\"shed\":%s,\"retained\":%s",
                            static_cast<unsigned long long>(record.id),
                            record.kind_index, record.error ? "true" : "false",
                            record.shed ? "true" : "false",
                            is_retained ? "true" : "false"));
  };
  // Retained first so a record that is both recent and tail-sampled
  // carries retained=true in the dump.
  for (const RequestRecord& record : retained) append(record, true);
  for (const RequestRecord& record : recent) append(record, false);
  return writer.Finish();
}

}  // namespace obs
}  // namespace upskill
