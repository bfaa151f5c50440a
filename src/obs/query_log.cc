#include "src/obs/query_log.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/runtime/json.h"

namespace ldb {
namespace obs {

std::string QueryLogRecord::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "#%llu session=%llu %s %s%s queue=%.2fms compile=%.2fms "
                "exec=%.2fms rows=%llu threads=%d hash=%016llx",
                static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(session), status.c_str(),
                plan_cached ? "cached" : "compiled", slow ? " SLOW" : "",
                queue_ms, compile_ms, exec_ms,
                static_cast<unsigned long long>(rows), threads,
                static_cast<unsigned long long>(query_hash));
  std::string out = buf;
  if (queue_wait_ms > 0 || serialize_ms > 0) {
    std::snprintf(buf, sizeof buf, " queue_wait=%.2fms serialize=%.2fms",
                  queue_wait_ms, serialize_ms);
    out += buf;
  }
  if (trace_id != 0) {
    std::snprintf(buf, sizeof buf, " trace=%016llx",
                  static_cast<unsigned long long>(trace_id));
    out += buf;
  }
  if (!remote.empty()) {
    out += " remote=";
    out += remote;
  }
  if (mem_peak_bytes > 0) {
    std::snprintf(buf, sizeof buf, " mem_peak=%llu",
                  static_cast<unsigned long long>(mem_peak_bytes));
    out += buf;
    if (!mem_op.empty()) {
      out += " mem_op=";
      out += mem_op;
    }
  }
  if (!error.empty()) {
    out += " error=\"";
    out += error;
    out += '"';
  }
  return out;
}

std::string QueryLogRecordToJson(const QueryLogRecord& r, bool with_spans) {
  std::string out = "{\"id\": " + std::to_string(r.id);
  out += ", \"session\": " + std::to_string(r.session);
  out += ", \"remote\": " + JsonQuote(r.remote);
  out += ", \"query_hash\": " + JsonQuote(Hex16(r.query_hash));
  out += ", \"status\": " + JsonQuote(r.status);
  out += ", \"error\": " + JsonQuote(r.error);
  out += ", \"plan_cached\": ";
  out += r.plan_cached ? "true" : "false";
  out += ", \"trace_id\": " + JsonQuote(TraceIdHex(r.trace_id));
  out += ", \"parent_span_id\": " + std::to_string(r.parent_span_id);
  out += ", \"client_context\": ";
  out += r.client_context ? "true" : "false";
  out += ", \"sample_reason\": " + JsonQuote(r.sample_reason);
  out += ", \"queue_wait_ms\": " + JsonDouble(r.queue_wait_ms);
  out += ", \"queue_ms\": " + JsonDouble(r.queue_ms);
  out += ", \"compile_ms\": " + JsonDouble(r.compile_ms);
  out += ", \"exec_ms\": " + JsonDouble(r.exec_ms);
  out += ", \"serialize_ms\": " + JsonDouble(r.serialize_ms);
  out += ", \"total_ms\": " + JsonDouble(r.total_ms);
  out += ", \"rows\": " + std::to_string(r.rows);
  out += ", \"mem_peak_bytes\": " + std::to_string(r.mem_peak_bytes);
  out += ", \"mem_op\": " + JsonQuote(r.mem_op);
  out += ", \"threads\": " + std::to_string(r.threads);
  out += ", \"verify\": " + JsonQuote(r.verify);
  out += ", \"slow\": ";
  out += r.slow ? "true" : "false";
  if (with_spans) {
    out += ", \"spans\": [";
    for (size_t i = 0; i < r.spans.size(); ++i) {
      if (i > 0) out += ",";
      out += SpanToJson(r.spans[i]);
    }
    out += "]";
  }
  out += "}";
  return out;
}

QueryLog::QueryLog(size_t capacity, double slow_ms, size_t kept_capacity,
                   uint32_t head_every)
    : capacity_(capacity == 0 ? 1 : capacity),
      slow_ms_(slow_ms),
      kept_capacity_(kept_capacity),
      head_every_(head_every) {
  ring_.resize(capacity_);
}

void QueryLog::Append(QueryLogRecord* rec) {
  MutexLock lock(&mu_);
  rec->id = ++appended_;
  if (rec->slow) ++slow_;
#if LDB_METRICS_ENABLED
  if (kept_capacity_ > 0) {
    const char* reason = nullptr;
    if (rec->force_sample) {
      reason = "forced";
    } else if (!rec->status.empty() && rec->status != "ok") {
      reason = "error";
    } else if (rec->slow) {
      reason = "slow";
    } else if (head_every_ > 0 && (appended_ - 1) % head_every_ == 0) {
      reason = "head";
    }
    if (reason != nullptr) {
      rec->sample_reason = reason;
      ++kept_count_;
      if (kept_.size() >= kept_capacity_) kept_.pop_front();
      kept_.push_back(*rec);
    }
  }
#endif
  // The recent records carry no spans: copy the record without them.
  std::vector<TraceSpan> spans = std::move(rec->spans);
  ring_[static_cast<size_t>((appended_ - 1) % capacity_)] = *rec;
  rec->spans = std::move(spans);
}

std::vector<QueryLogRecord> QueryLog::Tail(size_t n) const {
  MutexLock lock(&mu_);
  size_t live = static_cast<size_t>(std::min<uint64_t>(appended_, capacity_));
  n = std::min(n, live);
  std::vector<QueryLogRecord> out;
  out.reserve(n);
  // Records appended_-n+1 .. appended_ (1-based ids), oldest first.
  for (uint64_t id = appended_ - n + 1; id <= appended_ && n > 0; ++id) {
    out.push_back(ring_[static_cast<size_t>((id - 1) % capacity_)]);
  }
  return out;
}

bool QueryLog::RecordSerialize(uint64_t id, double start_ms, double dur_ms) {
  if (id == 0) return false;
  const double end_ms = start_ms + dur_ms;
  bool held = false;
  MutexLock lock(&mu_);
  if (id <= appended_ && id + capacity_ > appended_) {
    QueryLogRecord& rec = ring_[static_cast<size_t>((id - 1) % capacity_)];
    rec.serialize_ms = dur_ms;
    rec.total_ms = std::max(rec.total_ms, end_ms);
    held = true;
  }
#if LDB_METRICS_ENABLED
  // Ids grow along the ring, so the search stops at the first older record.
  for (auto it = kept_.rbegin(); it != kept_.rend() && it->id >= id; ++it) {
    if (it->id != id) continue;
    it->serialize_ms = dur_ms;
    it->total_ms = std::max(it->total_ms, end_ms);
    if (!it->spans.empty()) {
      // Spans are numbered 1..n from the root, which covers the request.
      TraceSpan s;
      s.span_id = it->spans.size() + 1;
      s.parent_span_id = it->spans.front().span_id;
      s.name = "serialize";
      s.lane = "worker";
      s.start_ms = start_ms;
      s.dur_ms = dur_ms;
      it->spans.push_back(std::move(s));
      it->spans.front().dur_ms = it->total_ms;
    }
    held = true;
    break;
  }
#endif
  return held;
}

bool QueryLog::Find(uint64_t trace_id, QueryLogRecord* out) const {
#if LDB_METRICS_ENABLED
  MutexLock lock(&mu_);
  const QueryLogRecord* best = nullptr;
  for (auto it = kept_.rbegin(); it != kept_.rend(); ++it) {
    if (trace_id != 0 ? it->trace_id == trace_id
                      : (best == nullptr || it->total_ms > best->total_ms)) {
      best = &*it;
      if (trace_id != 0) break;
    }
  }
  if (best == nullptr) return false;
  *out = *best;
  return true;
#else
  (void)trace_id;
  (void)out;
  return false;
#endif
}

std::vector<QueryLogRecord> QueryLog::KeptRecords() const {
#if LDB_METRICS_ENABLED
  MutexLock lock(&mu_);
  return std::vector<QueryLogRecord>(kept_.begin(), kept_.end());
#else
  return {};
#endif
}

std::string QueryLog::KeptToJson() const {
  std::vector<QueryLogRecord> kept;
  uint64_t submitted = 0;
  uint64_t kept_total = 0;
#if LDB_METRICS_ENABLED
  {
    MutexLock lock(&mu_);
    kept.assign(kept_.begin(), kept_.end());
    submitted = kept_capacity_ > 0 ? appended_ : 0;
    kept_total = kept_count_;
  }
#endif
  std::string out = "{\"capacity\":" + std::to_string(kept_capacity());
  out += ",\"submitted\":" + std::to_string(submitted);
  out += ",\"kept\":" + std::to_string(kept_total);
  out += ",\"dropped\":" + std::to_string(submitted - kept_total);
  out += ",\"traces\":[";
  for (size_t i = 0; i < kept.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n";
    out += QueryLogRecordToJson(kept[i], /*with_spans=*/true);
  }
  out += "]}\n";
  return out;
}

uint64_t QueryLog::appended() const {
  MutexLock lock(&mu_);
  return appended_;
}

uint64_t QueryLog::dropped() const {
  MutexLock lock(&mu_);
  return appended_ > capacity_ ? appended_ - capacity_ : 0;
}

uint64_t QueryLog::slow_count() const {
  MutexLock lock(&mu_);
  return slow_;
}

uint64_t QueryLog::kept_count() const {
#if LDB_METRICS_ENABLED
  MutexLock lock(&mu_);
  return kept_count_;
#else
  return 0;
#endif
}

}  // namespace obs
}  // namespace ldb
