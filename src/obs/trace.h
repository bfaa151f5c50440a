// End-to-end request tracing: the wire-propagated trace context, the span
// model, and the two functions that turn one request's record into spans and
// spans into Chrome trace-event JSON (docs/OBSERVABILITY.md, "Request
// tracing").
//
// A served query crosses four thread domains — client, server IO thread,
// service worker, morsel workers — and the aggregate histograms cannot say
// where one slow request spent its life. Tracing stitches the timings the
// stack already measures (wire read timestamp, admission wait, CompileTrace
// stage times, the executor's run record, serialize time) into a flat list
// of parented spans with wall offsets from the moment the request's frame
// was read off the socket. The spans belong to the request's one record,
// obs::QueryLogRecord (src/obs/query_log.h), and the query log keeps the
// tail-sampled records with their spans. BuildRequestTrace is the one place
// that turns a record's timings into spans, and TraceToChromeJson the one
// Chrome trace-event renderer, for served requests and for the shell's and
// the benchmark's traces alike.
//
//  * TraceContext — what travels on the wire (trace_id / parent span /
//    flags), minted by net::Client (and so by oqlsh and ldb_bench) and
//    appended to EXECUTE/PREPARE payloads as a trailing-bytes extension
//    (docs/WIRE.md). A request without a context is still traced
//    server-side: the service mints an id so slow or failing queries always
//    land in the log's kept records.
//  * TraceSpan — one span. Span ids are small integers unique within the
//    record (root = 1); the client's parent span id, if any, is the record's
//    parent_span_id, so a caller can graft the server trace under its own
//    span tree.
//
// With -DLDB_METRICS=OFF the service builds no spans and the query log keeps
// no traces; the wire extension still parses, so traced clients
// interoperate with untraced servers and vice versa.
//
// Layering: obs — may be included by service and net, never by runtime
// (the runtime's only obs dependency stays src/obs/resource.h). It reads
// the runtime's run record and profile and the optimizer's compile trace.

#ifndef LAMBDADB_OBS_TRACE_H_
#define LAMBDADB_OBS_TRACE_H_

#include <cstdint>
#include <string>

#include "src/runtime/json.h"

namespace ldb {

struct CompileTrace;   // src/core/optimizer.h
struct ExecTotals;     // src/runtime/physical.h
class QueryProfiler;   // src/runtime/profile.h

namespace obs {

struct QueryLogRecord;  // src/obs/query_log.h

/// The wire-propagated part of a trace: enough for the server to parent its
/// spans under the caller's and for the caller to fetch the server-side
/// trace later (INTROSPECT trace-by-id).
struct TraceContext {
  /// Force-keep bit: the query log keeps the request's trace regardless of
  /// outcome.
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

/// Fills rec->spans with one request's span tree, built from the record's
/// phase times, which run end to end from the trace origin in this order:
/// queue_wait_ms, queue_ms, compile_ms, exec_ms. Raises rec->total_ms to the
/// phases' sum when it is smaller.
///
///   request                 [0, total_ms), span 1
///   +- wire-queue           io lane, when queue_wait_ms > 0
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
void BuildRequestTrace(const CompileTrace* compile, const ExecTotals& run,
                       const QueryProfiler* profile, QueryLogRecord* rec);

/// Chrome trace-event JSON for one record's spans (open at
/// ui.perfetto.dev). Each lane becomes a thread row; spans are "X" events
/// at their wall offsets, in microseconds with 3 decimals, carrying their
/// span and parent ids.
std::string TraceToChromeJson(const QueryLogRecord& rec);

/// One span as a JSON object, offsets in milliseconds with 6 decimals (the
/// query log's record writer embeds these).
std::string SpanToJson(const TraceSpan& span);

}  // namespace obs
}  // namespace ldb

#endif  // LAMBDADB_OBS_TRACE_H_
