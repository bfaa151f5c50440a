#include "src/obs/query_log.h"

#include <algorithm>
#include <cstdio>

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

uint64_t QueryLog::Append(QueryLogRecord rec) {
  MutexLock lock(&mu_);
  rec.id = ++appended_;
  if (rec.slow) ++slow_;
  uint64_t id = rec.id;
  ring_[static_cast<size_t>((appended_ - 1) % capacity_)] = std::move(rec);
  return id;
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

bool QueryLog::SetSerializeMs(uint64_t id, double serialize_ms) {
  MutexLock lock(&mu_);
  if (id == 0 || id > appended_ || id + capacity_ <= appended_) return false;
  QueryLogRecord& rec = ring_[static_cast<size_t>((id - 1) % capacity_)];
  if (rec.id != id) return false;
  rec.serialize_ms = serialize_ms;
  return true;
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

}  // namespace obs
}  // namespace ldb
