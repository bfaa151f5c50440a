// A Session is one client's execution context against a QueryService: its
// parameter bindings, per-query deadline, memory budget, engine knobs, and
// the CancelToken the executors poll (docs/SERVICE.md).
//
// A session runs one query at a time (calls on the same session must not
// overlap); Cancel() may be called from any other thread and aborts the
// in-flight query at its first polling point. The token is re-armed
// (Reset + deadline) at every execution start, so a deadline applies per
// query, not per session lifetime — and a Cancel() landing between queries
// is cleared when the next one starts.

#ifndef LAMBDADB_SERVICE_SESSION_H_
#define LAMBDADB_SERVICE_SESSION_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "src/obs/trace.h"
#include "src/runtime/cancel.h"
#include "src/runtime/value.h"

namespace ldb {

struct SessionOptions {
  /// Per-query deadline in milliseconds; 0 = none. Armed on the session's
  /// CancelToken when each execution starts, so queueing time counts.
  int64_t deadline_ms = 0;
  /// Per-query memory budget in bytes; 0 = unlimited. Enforced at runtime:
  /// the executor charges its tracked allocations (hash/nest build tables,
  /// nested-loop buffers, collection folds) against the query's resource
  /// context and a charge that crosses the budget aborts the query
  /// mid-build with QueryMemoryExceeded (query-log status "over_budget") —
  /// it does not wait for the result to materialize. The service also
  /// measures the materialized result as a final check, so a query whose
  /// bulk is the result itself (e.g. a plain scan) is still refused rather
  /// than handed to the client. With metrics compiled out (-DLDB_METRICS=
  /// OFF) the in-flight tracking is a no-op and only the result check
  /// applies.
  size_t memory_budget_bytes = 0;
  /// Engine knobs, forwarded into ExecOptions per query.
  int n_threads = 1;
  size_t morsel_size = 2048;
};

class Session {
 public:
  /// `id` identifies the session in the query log; QueryService::OpenSession
  /// assigns them from a per-service counter (0 = not service-created).
  explicit Session(SessionOptions options, uint64_t id = 0)
      : options_(std::move(options)), id_(id) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }

  /// Binds parameter `$name` (positional `$1` binds name "1"). Rebinding
  /// replaces; bindings persist across executions until cleared.
  void Bind(const std::string& name, Value v) {
    bindings_[name] = std::move(v);
  }
  void ClearBindings() { bindings_.clear(); }
  const std::map<std::string, Value>& bindings() const { return bindings_; }

  /// Aborts the in-flight query at its first polling point. Safe from any
  /// thread.
  void Cancel() { token_.Cancel(); }

  CancelToken& token() { return token_; }
  const SessionOptions& options() const { return options_; }
  SessionOptions& options() { return options_; }

  /// Remote client address ("ip:port") when this session fronts a network
  /// connection; empty for in-process sessions. Flows into the query log and
  /// ActiveQueries() so an operator can tell who is running what. Set once
  /// at connection setup, before any query runs.
  void set_peer(std::string peer) { peer_ = std::move(peer); }
  const std::string& peer() const { return peer_; }

  /// Trace context for the NEXT query on this session, plus the wall time
  /// the request already spent server-side before the service saw it
  /// (wire read -> worker pickup). Set by the server worker right before
  /// Execute — same single-threaded discipline as bindings — and consumed
  /// by the service, which clears it when the query finishes so a later
  /// untraced query cannot inherit it. In-process callers (tests, embedded
  /// use) may set a context the same way to force-trace one query.
  void set_trace(const obs::TraceContext& ctx, double pre_wait_ms = 0) {
    trace_ctx_ = ctx;
    trace_pre_wait_ms_ = pre_wait_ms;
  }
  void clear_trace() {
    trace_ctx_ = obs::TraceContext();
    trace_pre_wait_ms_ = 0;
  }
  const obs::TraceContext& trace_context() const { return trace_ctx_; }
  double trace_pre_wait_ms() const { return trace_pre_wait_ms_; }

 private:
  SessionOptions options_;
  std::map<std::string, Value> bindings_;
  CancelToken token_;
  uint64_t id_ = 0;
  std::string peer_;
  obs::TraceContext trace_ctx_;
  double trace_pre_wait_ms_ = 0;
};

}  // namespace ldb

#endif  // LAMBDADB_SERVICE_SESSION_H_
