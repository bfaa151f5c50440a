// Structured query log: one QueryLogRecord per query the QueryService
// finished (any status), and the one store for them. A record carries the
// request's identity, outcome, phase times and trace context; records at or
// above the slow-query threshold also capture the rendered physical plan and
// a profiler snapshot, so a slow query can be diagnosed from the log alone.
//
// The log holds two bounded sets under one mutex (one acquisition per
// *query*, nothing on row paths):
//  * the `capacity` most recent records, overwriting the oldest once full
//    (`dropped()` counts the overwritten ones); these carry no spans;
//  * the trace ring: the `kept_capacity` most recent records that tail
//    sampling kept, with their span trees (src/obs/trace.h). A record is
//    kept when its request carried the force-sample flag, did not end "ok",
//    was slow, or was head-sampled (1 in `head_every` appended records), in
//    that order of precedence; the reason lands in `sample_reason`. The
//    decision needs the outcome, which is why it runs at completion, not
//    admission.
//
// With -DLDB_METRICS=OFF the trace ring compiles out (kept_capacity() is 0
// and nothing is sampled); the recent records are kept either way.

#ifndef LAMBDADB_OBS_QUERY_LOG_H_
#define LAMBDADB_OBS_QUERY_LOG_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/core/thread_annotations.h"
#include "src/obs/trace.h"

#ifndef LDB_METRICS_ENABLED
#define LDB_METRICS_ENABLED 1
#endif

namespace ldb {
namespace obs {

/// One finished query. `status` is one of:
///   "ok"          — completed and returned a result
///   "failed"      — threw (parse/type/eval/verify/internal error)
///   "cancelled"   — CancelToken fired or the session deadline expired
///   "rejected"    — admission queue full or admission deadline exceeded
///   "over_budget" — aborted (or refused at materialization) because the
///                   query exceeded the session's memory budget
///
/// A caller of QueryService::Execute sets the trace context (trace_id,
/// parent_span_id, force_sample) and queue_wait_ms on a fresh record; the
/// service fills in everything else.
struct QueryLogRecord {
  uint64_t id = 0;         ///< assigned by Append(); monotone across the log
  uint64_t session = 0;    ///< owning session id (0 = service-internal)
  std::string remote;      ///< client address ("ip:port") for queries that
                           ///< arrived over the wire protocol; "" in-process
  uint64_t query_hash = 0; ///< std::hash of the raw OQL text
  std::string status;
  std::string error;       ///< what() when status != "ok"
  bool plan_cached = false;  ///< this request compiled nothing
  uint64_t trace_id = 0;     ///< request trace id (0 = untraced); the key
                             ///< for Find / INTROSPECT trace-by-id
  uint64_t parent_span_id = 0;  ///< caller's span the request runs under
  bool client_context = false;  ///< trace id came from the caller (vs.
                                ///< minted by the service)
  bool force_sample = false;    ///< TraceContext::kForceSample was set
  double queue_wait_ms = 0;  ///< wire-read -> worker pickup (server-side
                             ///< pending-queue wait; 0 for in-process calls)
  double queue_ms = 0;       ///< admission-queue wait inside the service
  double compile_ms = 0;     ///< plan resolution: a stamp compare for a
                             ///< bound handle, else parse + key build
                             ///< (+ compile on a miss)
  double exec_ms = 0;        ///< execution proper (incl. ordered-sort)
  double serialize_ms = 0;   ///< result serialization on the server worker
                             ///< (recorded post-hoc; 0 for in-process calls)
  double total_ms = 0;       ///< trace origin (wire read, else the service
                             ///< call) -> the service finished; extended by
                             ///< a later serialize
  uint64_t rows = 0;       ///< result rows (collection size; 1 for scalars)
  uint64_t mem_peak_bytes = 0;  ///< peak tracked engine memory (0 untracked)
  std::string mem_op;      ///< operator class holding the largest peak
                           ///< ("" when nothing was charged)
  int threads = 1;
  std::string verify;      ///< "" (not run) | "ok" — a verifier rejection
                           ///< surfaces as status="failed" with the error
  bool slow = false;       ///< total_ms >= slow threshold when the service
                           ///< finished: plan/profile captured
  std::string sample_reason;  ///< why the trace ring kept it: "forced" |
                              ///< "error" | "slow" | "head"; "" = not kept
  std::string plan_text;     ///< rendered physical plan (slow queries only)
  std::string profile_json;  ///< ProfileToJson snapshot (slow + profiled)
  std::vector<TraceSpan> spans;  ///< span tree (BuildRequestTrace); only
                                 ///< the trace ring's copies keep it

  /// One-line human-readable rendering (oqlsh `.querylog`).
  std::string ToString() const;
};

/// The record as one JSON object, with its spans when `with_spans`; the
/// plan text and profile snapshot are elided (they can be arbitrarily
/// large). The one writer behind INTROSPECT's query-log tail and the trace
/// ring dump.
std::string QueryLogRecordToJson(const QueryLogRecord& rec, bool with_spans);

class QueryLog {
 public:
  /// Whether the trace ring is compiled in (false with -DLDB_METRICS=OFF).
  static constexpr bool KeepsTraces() { return LDB_METRICS_ENABLED != 0; }

  /// `slow_ms <= 0` disables slow-query capture entirely; `kept_capacity`
  /// 0 keeps no traces and `head_every` 0 head-samples none.
  QueryLog(size_t capacity, double slow_ms, size_t kept_capacity = 0,
           uint32_t head_every = 0);

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// A query whose total wall time reaches the threshold *exactly* is slow.
  bool IsSlow(double total_ms) const {
    return slow_ms_ > 0 && total_ms >= slow_ms_;
  }
  double slow_threshold_ms() const { return slow_ms_; }
  size_t capacity() const { return capacity_; }
  /// Trace-ring capacity after the compile gate: 0 with metrics compiled
  /// out.
  size_t kept_capacity() const { return KeepsTraces() ? kept_capacity_ : 0; }

  /// Assigns rec->id, applies tail sampling (setting rec->sample_reason),
  /// and stores the record: without its spans among the recent records and,
  /// when kept, with them in the trace ring. `rec->slow` is the caller's
  /// IsSlow(total_ms) verdict; the slow counter and the sampler both read it.
  void Append(QueryLogRecord* rec) LDB_EXCLUDES(mu_);

  /// The most recent `n` records, oldest-first.
  std::vector<QueryLogRecord> Tail(size_t n) const LDB_EXCLUDES(mu_);

  /// Post-hoc reply serialization for record `id`, which the server
  /// serializes after the service appended it: sets serialize_ms and
  /// extends total_ms to `start_ms + dur_ms` (both from the trace origin) on
  /// each held copy, and gives a kept copy a "serialize" span under its
  /// root. `slow` stays as decided at Append. Returns false when neither
  /// copy is held any more.
  bool RecordSerialize(uint64_t id, double start_ms, double dur_ms)
      LDB_EXCLUDES(mu_);

  /// Copies out the newest kept record with this trace id; trace_id == 0
  /// selects the slowest kept record (the "show me the outlier"
  /// convenience the INTROSPECT opcode and oqlsh's .fetch-trace slowest
  /// rely on).
  bool Find(uint64_t trace_id, QueryLogRecord* out) const LDB_EXCLUDES(mu_);

  /// Oldest-first copy of the trace ring.
  std::vector<QueryLogRecord> KeptRecords() const LDB_EXCLUDES(mu_);

  /// The trace ring dump (ldb_server --trace-dump / SIGUSR1): its capacity,
  /// the records submitted to sampling, kept and dropped, and every kept
  /// record with its spans. With metrics compiled out: capacity 0, nothing
  /// submitted, no records.
  std::string KeptToJson() const LDB_EXCLUDES(mu_);

  uint64_t appended() const LDB_EXCLUDES(mu_);  ///< records ever appended
  uint64_t dropped() const LDB_EXCLUDES(mu_);   ///< overwritten by wraparound
  uint64_t slow_count() const LDB_EXCLUDES(mu_);
  uint64_t kept_count() const LDB_EXCLUDES(mu_);  ///< ever kept by sampling

 private:
  const size_t capacity_;
  const double slow_ms_;
  const size_t kept_capacity_;
  const uint32_t head_every_;
  mutable Mutex mu_;
  std::vector<QueryLogRecord> ring_ LDB_GUARDED_BY(mu_);
  uint64_t appended_ LDB_GUARDED_BY(mu_) = 0;
  uint64_t slow_ LDB_GUARDED_BY(mu_) = 0;
#if LDB_METRICS_ENABLED
  std::deque<QueryLogRecord> kept_ LDB_GUARDED_BY(mu_);
  uint64_t kept_count_ LDB_GUARDED_BY(mu_) = 0;
#endif
};

}  // namespace obs
}  // namespace ldb

#endif  // LAMBDADB_OBS_QUERY_LOG_H_
