#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/optimizer.h"
#include "src/obs/query_log.h"
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
// milliseconds with 6 decimals in the query log's JSON, as microseconds
// with 3 in Chrome events. (Significant-digit formats round a late span's
// start past its predecessor's end.)
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

}  // namespace

std::string SpanToJson(const TraceSpan& s) {
  std::string out = "{\"span_id\":" + std::to_string(s.span_id);
  out += ",\"parent_span_id\":" + std::to_string(s.parent_span_id);
  out += ",\"name\":" + JsonQuote(s.name);
  out += ",\"lane\":" + JsonQuote(s.lane);
  out += ",\"start_ms\":" + Ms(s.start_ms);
  out += ",\"dur_ms\":" + Ms(s.dur_ms);
  out += "}";
  return out;
}

void BuildRequestTrace(const CompileTrace* compile, const ExecTotals& run,
                       const QueryProfiler* profile, QueryLogRecord* rec) {
  std::vector<TraceSpan>& spans = rec->spans;
  spans.clear();
  uint64_t next_id = 1;
  auto add = [&spans, &next_id](uint64_t parent, std::string name,
                                std::string lane, double start, double dur) {
    TraceSpan s;
    s.span_id = next_id++;
    s.parent_span_id = parent;
    s.name = std::move(name);
    s.lane = std::move(lane);
    s.start_ms = start;
    s.dur_ms = dur;
    spans.push_back(std::move(s));
    return spans.back().span_id;
  };
  const double phases_ms =
      rec->queue_wait_ms + rec->queue_ms + rec->compile_ms + rec->exec_ms;
  rec->total_ms = std::max(rec->total_ms, phases_ms);
  const uint64_t root = add(0, "request", "worker", 0, rec->total_ms);
  if (rec->queue_wait_ms > 0)
    add(root, "wire-queue", "io", 0, rec->queue_wait_ms);
  double at = rec->queue_wait_ms;
  add(root, "admission", "worker", at, rec->queue_ms);
  at += rec->queue_ms;
  const uint64_t compile_id =
      add(root, "compile", "worker", at, rec->compile_ms);
  if (compile != nullptr) {
    double stage_at = at;
    for (const StageTiming& stage : compile->stages) {
      add(compile_id, "compile:" + stage.stage, "worker", stage_at, stage.ms);
      stage_at += stage.ms;
    }
  }
  at += rec->compile_ms;
  const uint64_t exec = add(root, "execute", "worker", at, rec->exec_ms);
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
    add(exec, std::to_string(n - kMaxMorselSpans).insert(0, 1, '+') +
                  " morsels",
        "worker", at + rec->exec_ms, 0);
  if (profile != nullptr) {
    for (const OperatorStats* op : profile->Operators()) {
      const std::string id = std::to_string(op->op_id);
      add(exec, "#" + id + " " + op->label, "op-" + id, at,
          (op->open_ns + op->next_ns) / 1e6);
    }
  }
}

std::string TraceToChromeJson(const QueryLogRecord& rec) {
  std::vector<std::string> lanes;
  std::string ev;
  auto emit = [&ev](const std::string& e) {
    if (!ev.empty()) ev += ",\n";
    ev += e;
  };
  // Process + thread name metadata so Perfetto labels the rows.
  emit("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":" +
       JsonQuote("request " + TraceIdHex(rec.trace_id) + " (" + rec.status +
                 ")") +
       "}}");
  for (const TraceSpan& s : rec.spans) {
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

}  // namespace obs
}  // namespace ldb
