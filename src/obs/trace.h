// End-to-end request tracing: the per-request span model, the wire-propagated
// trace context, and the tail-sampled trace ring (docs/OBSERVABILITY.md,
// "Request tracing").
//
// A served query crosses four thread domains — client, server IO thread,
// service worker, morsel workers — and the aggregate histograms cannot say
// where one slow request spent its life. Tracing stitches the timings the
// stack already measures (wire read timestamp, admission wait, CompileTrace
// stage times, the executor's run record, serialize time) into one
// RequestTrace: a flat list of parented spans with wall offsets from the
// moment the request's frame was read off the socket. BuildRequestTrace is
// the one place that turns those timings into spans, and TraceToChromeJson
// the one Chrome trace-event renderer, for served requests and for the
// shell's and the benchmark's local traces alike.
//
//  * TraceContext — what travels on the wire (trace_id / parent span /
//    flags), minted by net::Client (and so by oqlsh and ldb_bench) and
//    appended to EXECUTE/PREPARE payloads as a trailing-bytes extension
//    (docs/WIRE.md).
//    A request without a context is still traced server-side: the service
//    mints an id so slow or failing queries always land in the ring.
//  * RequestTrace / TraceSpan — the assembled trace. Span ids are small
//    integers unique within the trace (root = 1); the client's parent span
//    id, if any, becomes the root's parent so a caller can graft the server
//    trace under its own span tree.
//  * TraceRing — an always-on bounded ring with TAIL sampling: a completed
//    trace is kept when the request was slow (total >= slow_ms), did not
//    end "ok" (failed / cancelled / rejected / over_budget), was
//    head-sampled (1 in head_every), or carried the force-sample flag.
//    Everything else is dropped after one mutex acquisition — the decision
//    needs the outcome, which is why it runs at completion, not admission.
//
// With -DLDB_METRICS=OFF the ring compiles to a zero-capacity no-op
// (Submit/Find/Snapshot are empty inline functions) and the service skips
// span assembly entirely; the wire extension still parses, so traced
// clients interoperate with untraced servers and vice versa.
//
// Layering: obs — may be included by service and net, never by runtime
// (the runtime's only obs dependency stays src/obs/resource.h). It reads
// the runtime's run record and profile and the optimizer's compile trace.

#ifndef LAMBDADB_OBS_TRACE_H_
#define LAMBDADB_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/core/thread_annotations.h"
#include "src/runtime/json.h"

#ifndef LDB_METRICS_ENABLED
#define LDB_METRICS_ENABLED 1
#endif

namespace ldb {

struct CompileTrace;   // src/core/optimizer.h
struct ExecTotals;     // src/runtime/physical.h
class QueryProfiler;   // src/runtime/profile.h

namespace obs {

/// The wire-propagated part of a trace: enough for the server to parent its
/// spans under the caller's and for the caller to fetch the server-side
/// trace later (INTROSPECT trace-by-id).
struct TraceContext {
  /// Force-keep bit: the ring keeps the trace regardless of outcome.
  static constexpr uint8_t kForceSample = 0x1;

  uint64_t trace_id = 0;        ///< 0 = untraced request
  uint64_t parent_span_id = 0;  ///< caller's span the request runs under
  uint8_t flags = 0;            ///< kForceSample

  bool valid() const { return trace_id != 0; }
};

/// Returns a fresh nonzero 64-bit trace id (splitmix64 over thread-local
/// state seeded from the clock and thread identity — unique enough for a
/// bounded ring, with no cross-thread contention).
uint64_t MintTraceId();

/// How a trace id appears in text (exemplars, JSON, logs): Hex16
/// (src/runtime/json.h), and its inverse ("" / malformed -> 0).
inline std::string TraceIdHex(uint64_t id) { return Hex16(id); }
inline uint64_t TraceIdFromHex(const std::string& hex) {
  return FromHex16(hex);
}

/// One span. Offsets are wall milliseconds from the trace origin — the
/// moment the server read the request frame (or, for in-process requests,
/// the moment the service accepted the call).
struct TraceSpan {
  uint64_t span_id = 0;         ///< unique within the trace; root = 1
  uint64_t parent_span_id = 0;  ///< 0 = the trace root itself
  std::string name;             ///< "request", "admission", "compile:unnest",
                                ///< "morsel 3", "#2 HashJoin", "serialize"...
  std::string lane;             ///< thread domain: "io", "worker",
                                ///< "morsel-0", or an operator's "op-2"
  double start_ms = 0;
  double dur_ms = 0;
};

/// A completed request's trace, as stored in the ring.
struct RequestTrace {
  uint64_t trace_id = 0;
  uint64_t root_span_id = 0;           ///< span carrying the whole request
  uint64_t client_parent_span_id = 0;  ///< from TraceContext (0 = none)
  uint64_t session = 0;
  uint64_t query_hash = 0;
  bool client_context = false;  ///< id came over the wire (vs. server-minted)
  bool force_sample = false;    ///< TraceContext::kForceSample was set
  std::string status;           ///< query-log status: "ok" | "failed" | ...
  std::string sample_reason;    ///< set by the ring: "slow" | "error" |
                                ///< "head" | "forced"
  double total_ms = 0;          ///< origin -> last span end
  std::vector<TraceSpan> spans;
};

/// Wall milliseconds of one request's phases, which run end to end from the
/// trace origin in this order.
struct RequestPhases {
  double wire_queue_ms = 0;  ///< socket read -> service (0: in-process)
  double admission_ms = 0;
  double compile_ms = 0;
  double exec_ms = 0;
};

/// Fills t->spans, t->root_span_id and t->total_ms with one request's span
/// tree; the caller sets the trace's identity and outcome:
///
///   request                 [0, total), the larger of `total_ms` and the
///   |                       phases' sum
///   +- wire-queue           io lane, when wire_queue_ms > 0
///   +- admission
///   +- compile
///   |  +- compile:<stage>   one per stage of `compile` (null: the plan came
///   |                       from the cache)
///   +- execute
///      +- prebuild          a parallel run's serial build of the shared
///      |                    join tables (run.prebuild_ns > 0)
///      +- morsel <i>        lane morsel-<worker>, at its offset from the
///      |                    execution's start; at most 256, the rest as
///      |                    one "+N morsels" marker
///      +- #<id> <label>     with a `profile`: one per operator, on lane
///                           op-<id>, lasting its open_ns + next_ns summed
///                           over workers (so in a parallel run it may
///                           outlast execute)
///
/// Spans on the worker lane are laid end to end and nest; every other lane
/// holds non-overlapping spans.
void BuildRequestTrace(const RequestPhases& phases, double total_ms,
                       const CompileTrace* compile, const ExecTotals& run,
                       const QueryProfiler* profile, RequestTrace* t);

/// Chrome trace-event JSON for one trace (open at ui.perfetto.dev). Each
/// lane becomes a thread row; spans are "X" events at their wall offsets,
/// in microseconds with 3 decimals, carrying their span and parent ids.
std::string TraceToChromeJson(const RequestTrace& t);

/// Self-contained JSON document for a ring snapshot: counters plus every
/// kept trace with its spans. The SIGUSR1 / --trace-dump artifact format.
std::string TraceRingJson(const std::vector<RequestTrace>& traces,
                          size_t capacity, uint64_t submitted, uint64_t kept,
                          uint64_t dropped);

/// Bounded tail-sampling store of completed RequestTraces. One mutex
/// acquisition per completed request (never on row paths); oldest kept
/// trace is evicted when full.
class TraceRing {
 public:
  struct Options {
    size_t capacity = 64;    ///< kept traces retained; 0 disables the ring
    double slow_ms = 50;     ///< keep when total_ms >= slow_ms (<= 0: never)
    uint32_t head_every = 128;  ///< also keep 1 in N submissions (0: never)
  };

  static constexpr bool Enabled() { return LDB_METRICS_ENABLED != 0; }

  TraceRing() : TraceRing(Options()) {}
  explicit TraceRing(Options opts) : opts_(opts) {}
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Capacity after the compile gate: 0 with metrics compiled out.
  size_t capacity() const { return Enabled() ? opts_.capacity : 0; }
  double slow_ms() const { return opts_.slow_ms; }

#if LDB_METRICS_ENABLED
  /// Applies the tail-sampling policy and stores the trace when it passes
  /// (filling sample_reason). Returns whether the trace was kept.
  bool Submit(RequestTrace t) LDB_EXCLUDES(mu_);

  /// Appends a late span (the server's serialize/reply work happens after
  /// the service finalized the trace) to a kept trace; extends total_ms and
  /// the root span to cover it. No-op (false) when the trace was sampled
  /// out or evicted.
  bool AppendSpan(uint64_t trace_id, const TraceSpan& span)
      LDB_EXCLUDES(mu_);

  /// Copies out the trace with this id; trace_id == 0 selects the slowest
  /// kept trace (the "show me the outlier" convenience the INTROSPECT
  /// opcode and oqlsh's .fetch-trace slowest rely on).
  bool Find(uint64_t trace_id, RequestTrace* out) const LDB_EXCLUDES(mu_);

  /// Oldest-first copy of every kept trace.
  std::vector<RequestTrace> Snapshot() const LDB_EXCLUDES(mu_);

  uint64_t submitted() const LDB_EXCLUDES(mu_);
  uint64_t kept() const LDB_EXCLUDES(mu_);
  uint64_t dropped() const LDB_EXCLUDES(mu_);
#else
  bool Submit(RequestTrace) { return false; }
  bool AppendSpan(uint64_t, const TraceSpan&) { return false; }
  bool Find(uint64_t, RequestTrace*) const { return false; }
  std::vector<RequestTrace> Snapshot() const { return {}; }
  uint64_t submitted() const { return 0; }
  uint64_t kept() const { return 0; }
  uint64_t dropped() const { return 0; }
#endif

  /// Ring snapshot rendered with TraceRingJson (empty document when
  /// metrics are compiled out — the --metrics-off CI mode asserts this).
  std::string ToJson() const;

 private:
  const Options opts_;
#if LDB_METRICS_ENABLED
  mutable Mutex mu_;
  std::deque<RequestTrace> traces_ LDB_GUARDED_BY(mu_);
  uint64_t submitted_ LDB_GUARDED_BY(mu_) = 0;
  uint64_t kept_ LDB_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ LDB_GUARDED_BY(mu_) = 0;
#endif
};

}  // namespace obs
}  // namespace ldb

#endif  // LAMBDADB_OBS_TRACE_H_
