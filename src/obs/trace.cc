#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

#include "src/core/optimizer.h"
#include "src/runtime/profile.h"

namespace ldb {
namespace obs {

uint64_t MintTraceId() {
  thread_local uint64_t state = 0;
  if (state == 0) {
    uint64_t clock = static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    uint64_t tid = std::hash<std::thread::id>()(std::this_thread::get_id());
    state = clock ^ (tid * 0x9e3779b97f4a7c15ULL) ^ 0x2545f4914f6cdd1dULL;
  }
  // splitmix64 step: every call advances the thread-local state.
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return z != 0 ? z : 1;
}

namespace {

// Span offsets print at nanosecond resolution whatever their size: as
// milliseconds with 6 decimals in ring documents, as microseconds with 3 in
// Chrome events. (Significant-digit formats round a late span's start past
// its predecessor's end.)
std::string Fixed(double v, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string Ms(double ms) { return Fixed(ms, 6); }
std::string Us(double ms) { return Fixed(ms * 1000.0, 3); }

/// Stable lane -> Chrome tid mapping: lanes appear as thread rows in the
/// order they first show up in the span list ("worker" and "io" first by
/// construction, then the morsel lanes and the operator lanes).
int LaneTid(std::vector<std::string>* lanes, const std::string& lane) {
  for (size_t i = 0; i < lanes->size(); ++i) {
    if ((*lanes)[i] == lane) return static_cast<int>(i) + 1;
  }
  lanes->push_back(lane);
  return static_cast<int>(lanes->size());
}

std::string SpanJson(const TraceSpan& s) {
  std::string out = "{\"span_id\":" + std::to_string(s.span_id);
  out += ",\"parent_span_id\":" + std::to_string(s.parent_span_id);
  out += ",\"name\":" + JsonQuote(s.name);
  out += ",\"lane\":" + JsonQuote(s.lane);
  out += ",\"start_ms\":" + Ms(s.start_ms);
  out += ",\"dur_ms\":" + Ms(s.dur_ms);
  out += "}";
  return out;
}

std::string TraceJson(const RequestTrace& t) {
  std::string out = "{\"trace_id\":\"" + TraceIdHex(t.trace_id) + "\"";
  out += ",\"session\":" + std::to_string(t.session);
  out += ",\"query_hash\":\"" + Hex16(t.query_hash) + "\"";
  out += ",\"status\":" + JsonQuote(t.status);
  out += ",\"sample_reason\":" + JsonQuote(t.sample_reason);
  out += ",\"client_context\":";
  out += t.client_context ? "true" : "false";
  out += ",\"total_ms\":" + Ms(t.total_ms);
  out += ",\"spans\":[";
  for (size_t i = 0; i < t.spans.size(); ++i) {
    if (i > 0) out += ",";
    out += SpanJson(t.spans[i]);
  }
  out += "]}";
  return out;
}

}  // namespace

void BuildRequestTrace(const RequestPhases& phases, double total_ms,
                       const CompileTrace* compile, const ExecTotals& run,
                       const QueryProfiler* profile, RequestTrace* t) {
  t->spans.clear();
  uint64_t next_id = 1;
  auto add = [t, &next_id](uint64_t parent, std::string name,
                           std::string lane, double start, double dur) {
    TraceSpan s;
    s.span_id = next_id++;
    s.parent_span_id = parent;
    s.name = std::move(name);
    s.lane = std::move(lane);
    s.start_ms = start;
    s.dur_ms = dur;
    t->spans.push_back(std::move(s));
    return t->spans.back().span_id;
  };
  const double phases_ms = phases.wire_queue_ms + phases.admission_ms +
                           phases.compile_ms + phases.exec_ms;
  t->total_ms = std::max(total_ms, phases_ms);
  t->root_span_id = add(0, "request", "worker", 0, t->total_ms);
  const uint64_t root = t->root_span_id;
  if (phases.wire_queue_ms > 0)
    add(root, "wire-queue", "io", 0, phases.wire_queue_ms);
  double at = phases.wire_queue_ms;
  add(root, "admission", "worker", at, phases.admission_ms);
  at += phases.admission_ms;
  const uint64_t compile_id =
      add(root, "compile", "worker", at, phases.compile_ms);
  if (compile != nullptr) {
    double stage_at = at;
    for (const StageTiming& stage : compile->stages) {
      add(compile_id, "compile:" + stage.stage, "worker", stage_at, stage.ms);
      stage_at += stage.ms;
    }
  }
  at += phases.compile_ms;
  const uint64_t exec = add(root, "execute", "worker", at, phases.exec_ms);
  if (run.prebuild_ns > 0)
    add(exec, "prebuild", "worker", at, run.prebuild_ns / 1e6);
  // Bounded, so a huge scan cannot bloat the ring; the remainder collapses
  // into one marker at the end of execute.
  constexpr size_t kMaxMorselSpans = 256;
  const size_t n = run.morsels.size();
  for (size_t i = 0; i < n && i < kMaxMorselSpans; ++i) {
    const MorselStats& m = run.morsels[i];
    add(exec, "morsel " + std::to_string(m.index),
        "morsel-" + std::to_string(m.worker), at + m.start_ns / 1e6,
        m.dur_ns / 1e6);
  }
  if (n > kMaxMorselSpans)
    add(exec, "+" + std::to_string(n - kMaxMorselSpans) + " morsels",
        "worker", at + phases.exec_ms, 0);
  if (profile != nullptr) {
    for (const OperatorStats* op : profile->Operators()) {
      const std::string id = std::to_string(op->op_id);
      add(exec, "#" + id + " " + op->label, "op-" + id, at,
          (op->open_ns + op->next_ns) / 1e6);
    }
  }
}

std::string TraceToChromeJson(const RequestTrace& t) {
  std::vector<std::string> lanes;
  std::string ev;
  auto emit = [&ev](const std::string& e) {
    if (!ev.empty()) ev += ",\n";
    ev += e;
  };
  // Process + thread name metadata so Perfetto labels the rows.
  emit("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":" +
       JsonQuote("request " + TraceIdHex(t.trace_id) + " (" + t.status + ")") +
       "}}");
  for (const TraceSpan& s : t.spans) {
    int tid = LaneTid(&lanes, s.lane);
    emit("{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tid) +
         ",\"name\":" + JsonQuote(s.name) + ",\"ts\":" + Us(s.start_ms) +
         ",\"dur\":" + Us(s.dur_ms) + ",\"args\":{\"span_id\":" +
         std::to_string(s.span_id) + ",\"parent_span_id\":" +
         std::to_string(s.parent_span_id) + "}}");
  }
  for (size_t i = 0; i < lanes.size(); ++i) {
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(i + 1) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":" +
         JsonQuote(lanes[i]) + "}}");
  }
  return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" + ev + "\n]}\n";
}

std::string TraceRingJson(const std::vector<RequestTrace>& traces,
                          size_t capacity, uint64_t submitted, uint64_t kept,
                          uint64_t dropped) {
  std::string out = "{\"capacity\":" + std::to_string(capacity);
  out += ",\"submitted\":" + std::to_string(submitted);
  out += ",\"kept\":" + std::to_string(kept);
  out += ",\"dropped\":" + std::to_string(dropped);
  out += ",\"traces\":[";
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n";
    out += TraceJson(traces[i]);
  }
  out += "]}\n";
  return out;
}

#if LDB_METRICS_ENABLED

bool TraceRing::Submit(RequestTrace t) {
  if (opts_.capacity == 0) return false;
  MutexLock lock(&mu_);
  ++submitted_;
  const char* reason = nullptr;
  if (t.force_sample) {
    reason = "forced";
  } else if (!t.status.empty() && t.status != "ok") {
    reason = "error";
  } else if (opts_.slow_ms > 0 && t.total_ms >= opts_.slow_ms) {
    reason = "slow";
  } else if (opts_.head_every > 0 && (submitted_ - 1) % opts_.head_every == 0) {
    reason = "head";
  }
  if (reason == nullptr) {
    ++dropped_;
    return false;
  }
  t.sample_reason = reason;
  ++kept_;
  if (traces_.size() >= opts_.capacity) traces_.pop_front();
  traces_.push_back(std::move(t));
  return true;
}

bool TraceRing::AppendSpan(uint64_t trace_id, const TraceSpan& span) {
  if (trace_id == 0 || opts_.capacity == 0) return false;
  MutexLock lock(&mu_);
  for (auto it = traces_.rbegin(); it != traces_.rend(); ++it) {
    if (it->trace_id != trace_id) continue;
    TraceSpan s = span;
    // Late spans may leave ids unset: number after the existing spans and
    // hang off the root so the caller needs no knowledge of the numbering.
    if (s.span_id == 0) {
      uint64_t max_id = 0;
      for (const TraceSpan& have : it->spans)
        if (have.span_id > max_id) max_id = have.span_id;
      s.span_id = max_id + 1;
    }
    if (s.parent_span_id == 0) s.parent_span_id = it->root_span_id;
    double end_ms = s.start_ms + s.dur_ms;
    it->spans.push_back(std::move(s));
    if (end_ms > it->total_ms) {
      // The root span carries the whole request, so it grows too.
      it->total_ms = end_ms;
      for (TraceSpan& have : it->spans)
        if (have.span_id == it->root_span_id) have.dur_ms = end_ms;
    }
    return true;
  }
  return false;
}

bool TraceRing::Find(uint64_t trace_id, RequestTrace* out) const {
  MutexLock lock(&mu_);
  const RequestTrace* best = nullptr;
  for (const RequestTrace& t : traces_) {
    if (trace_id != 0 ? t.trace_id == trace_id
                      : (best == nullptr || t.total_ms > best->total_ms)) {
      best = &t;
      if (trace_id != 0) break;
    }
  }
  if (best == nullptr) return false;
  *out = *best;
  return true;
}

std::vector<RequestTrace> TraceRing::Snapshot() const {
  MutexLock lock(&mu_);
  return std::vector<RequestTrace>(traces_.begin(), traces_.end());
}

uint64_t TraceRing::submitted() const {
  MutexLock lock(&mu_);
  return submitted_;
}

uint64_t TraceRing::kept() const {
  MutexLock lock(&mu_);
  return kept_;
}

uint64_t TraceRing::dropped() const {
  MutexLock lock(&mu_);
  return dropped_;
}

#endif  // LDB_METRICS_ENABLED

std::string TraceRing::ToJson() const {
  return TraceRingJson(Snapshot(), capacity(), submitted(), kept(), dropped());
}

}  // namespace obs
}  // namespace ldb
