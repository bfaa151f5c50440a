// The benchmark's own span recorder (traced mode only). Spans are recorded
// by ldb_bench around its calls into each layer's public functions — the
// program under test is not instrumented further. Each thread owns one
// SpanLog, so recording takes no lock; logs are merged when the run ends.
//
// A span's self time is its duration minus the time its children cover.
// Children of one parent never overlap here (every span tree is built by a
// single thread, or synthesized back to back from the server's reported
// phases), so that is simply the duration minus the children's durations.

#ifndef LAMBDADB_BENCH_E2E_SPANS_H_
#define LAMBDADB_BENCH_E2E_SPANS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "bench/e2e/bench_util.h"

namespace ldb::e2e {

struct Span {
  const char* name = "";   ///< static string
  const char* layer = "";  ///< bench | net | service | runtime | oql | ...
  uint64_t request = 0;    ///< request id shared by a request's spans; 0 = none
  int64_t start_ns = 0;    ///< since the run's epoch
  int64_t end_ns = 0;
  int parent = -1;         ///< index into the same log; -1 = root
};

/// Spans of one thread. Begin/End nest like a stack; Add inserts a span
/// with explicit times (server phases reconstructed from EXEC_OK).
class SpanLog {
 public:
  SpanLog(int tid, Clock::time_point epoch) : tid_(tid), epoch_(epoch) {}

  int Begin(const char* name, const char* layer, uint64_t request);
  void End(int index);
  int Add(const char* name, const char* layer, uint64_t request,
          int64_t start_ns, int64_t end_ns, int parent);
  int64_t Now() const { return NanosBetween(epoch_, Clock::now()); }
  /// Index of the innermost open span, or -1.
  int current() const { return open_.empty() ? -1 : open_.back(); }

  int tid() const { return tid_; }
  const std::deque<Span>& spans() const { return spans_; }

 private:
  int tid_;
  Clock::time_point epoch_;
  std::deque<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* layer,
             uint64_t request = 0)
      : log_(log), index_(log ? log->Begin(name, layer, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Self time per layer over a set of logs, plus how much of each root
/// "request" span its children cover.
struct LayerTable {
  struct Row {
    double self_ms = 0;
    uint64_t spans = 0;
  };
  std::map<std::string, Row> by_layer;  ///< layer -> total self time
  std::map<std::string, Row> by_span;   ///< "layer/name" -> total self time
  double request_ms = 0;       ///< summed duration of root request spans
  double request_self_ms = 0;  ///< their own self time (not covered)
  double coverage() const {
    return request_ms > 0 ? 1.0 - request_self_ms / request_ms : 0;
  }
  std::string ToText() const;
  std::string ToJson() const;
};

LayerTable BuildLayerTable(const std::vector<const SpanLog*>& logs);

/// Chrome trace-event JSON (load in ui.perfetto.dev or chrome://tracing).
/// Spans of requests with id > `max_request` are left out to bound the
/// file size; spans outside any request are always kept.
std::string ChromeTraceJson(const std::vector<const SpanLog*>& logs,
                            uint64_t max_request);

}  // namespace ldb::e2e

#endif  // LAMBDADB_BENCH_E2E_SPANS_H_
