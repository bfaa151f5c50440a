#include "src/obs/resource.h"

namespace ldb {
namespace obs {

void MemoryTracker::Flush() {
#if LDB_METRICS_ENABLED
  FlushNoThrow();
  if (ctx_ != nullptr && ctx_->OverBudget()) {
    throw QueryMemoryExceeded(
        "query memory (" + std::to_string(ctx_->InUseBytes()) +
        " bytes in use, peak " + std::to_string(ctx_->PeakBytes()) +
        ") exceeds the session memory budget of " +
        std::to_string(ctx_->budget_bytes()) + " bytes");
  }
#endif
}

void MemoryTracker::FlushNoThrow() {
#if LDB_METRICS_ENABLED
  if (ctx_ == nullptr) {
    unflushed_ = 0;
    return;
  }
  for (int c = 0; c < QueryResourceContext::kMaxOpClasses; ++c) {
    if (pending_[c] != 0) {
      ctx_->Apply(c, pending_[c]);
      pending_[c] = 0;
    }
  }
  unflushed_ = 0;
#endif
}

uint64_t ActiveQueryRegistry::Register(
    uint64_t session, uint64_t query_hash,
    std::shared_ptr<const QueryResourceContext> ctx, std::string remote) {
  MutexLock lock(&mu_);
  uint64_t id = ++next_id_;
  Entry& e = entries_[id];
  e.session = session;
  e.remote = std::move(remote);
  e.query_hash = query_hash;
  e.start = std::chrono::steady_clock::now();
  e.phase = "queued";
  e.ctx = std::move(ctx);
  return id;
}

void ActiveQueryRegistry::SetPhase(uint64_t id, const char* phase) {
  MutexLock lock(&mu_);
  auto it = entries_.find(id);
  if (it != entries_.end()) it->second.phase = phase;
}

void ActiveQueryRegistry::Unregister(uint64_t id) {
  MutexLock lock(&mu_);
  entries_.erase(id);
}

std::vector<ActiveQueryInfo> ActiveQueryRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  // Read the clock under mu_: every entry's start was stamped under mu_
  // earlier, so on the monotonic clock no elapsed_ms can come out negative.
  auto now = std::chrono::steady_clock::now();
  std::vector<ActiveQueryInfo> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    ActiveQueryInfo info;
    info.query_id = id;
    info.session = e.session;
    info.remote = e.remote;
    info.query_hash = e.query_hash;
    info.phase = e.phase;
    info.elapsed_ms =
        std::chrono::duration<double, std::milli>(now - e.start).count();
    if (e.ctx != nullptr) {
      info.rows = e.ctx->RowsSoFar();
      info.mem_in_use_bytes = e.ctx->InUseBytes();
      info.mem_peak_bytes = e.ctx->PeakBytes();
    }
    out.push_back(std::move(info));
  }
  return out;
}

uint64_t ActiveQueryRegistry::SumInUseBytes() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& [id, e] : entries_) {
    if (e.ctx != nullptr) total += e.ctx->InUseBytes();
  }
  return total;
}

size_t ActiveQueryRegistry::Count() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

}  // namespace obs
}  // namespace ldb
