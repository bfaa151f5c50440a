#include "src/service/plan_cache.h"

namespace ldb {

PlanKey::PlanKey(ExprPtr term_in, std::string stamp_in,
                 std::vector<bool> descending_in)
    : term(std::move(term_in)),
      stamp(std::move(stamp_in)),
      descending(std::move(descending_in)) {
  hash = ExprKeyHash(term) ^ (std::hash<std::string>{}(stamp) << 1) ^
         (std::hash<std::vector<bool>>{}(descending) << 2);
}

bool PlanKey::operator==(const PlanKey& other) const {
  return hash == other.hash && stamp == other.stamp &&
         descending == other.descending && ExprKeyEqual(term, other.term);
}

void PlanCache::SetMetricHooks(MetricHooks hooks) {
  MutexLock lock(&mu_);
  hooks_ = hooks;
}

std::shared_ptr<const PreparedPlan> PlanCache::Lookup(const PlanKey& key) {
  MutexLock lock(&mu_);
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    ++misses_;
    if (hooks_.misses != nullptr) hooks_.misses->Inc();
    return nullptr;
  }
  ++hits_;
  if (hooks_.hits != nullptr) hooks_.hits->Inc();
  lru_.splice(lru_.begin(), lru_, it->second);
  return lru_.front();
}

void PlanCache::Insert(std::shared_ptr<const PreparedPlan> plan) {
  MutexLock lock(&mu_);
  auto it = by_key_.find(plan->key);
  if (it != by_key_.end()) {
    *it->second = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(std::move(plan));
  by_key_.emplace(lru_.front()->key, lru_.begin());
  while (lru_.size() > capacity_ && capacity_ > 0) {
    by_key_.erase(lru_.back()->key);
    lru_.pop_back();
    ++evictions_capacity_;
    if (hooks_.evictions_capacity != nullptr) hooks_.evictions_capacity->Inc();
  }
  if (hooks_.entries != nullptr)
    hooks_.entries->Set(static_cast<int64_t>(lru_.size()));
}

void PlanCache::Clear() {
  MutexLock lock(&mu_);
  evictions_invalidated_ += lru_.size();
  if (hooks_.evictions_invalidated != nullptr)
    hooks_.evictions_invalidated->Inc(lru_.size());
  lru_.clear();
  by_key_.clear();
  if (hooks_.entries != nullptr) hooks_.entries->Set(0);
}

size_t PlanCache::EvictNotMatching(const std::string& stamp) {
  MutexLock lock(&mu_);
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if ((*it)->key.stamp != stamp) {
      by_key_.erase((*it)->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  evictions_invalidated_ += dropped;
  if (hooks_.evictions_invalidated != nullptr && dropped > 0)
    hooks_.evictions_invalidated->Inc(dropped);
  if (hooks_.entries != nullptr)
    hooks_.entries->Set(static_cast<int64_t>(lru_.size()));
  return dropped;
}

PlanCacheStats PlanCache::Stats() const {
  MutexLock lock(&mu_);
  PlanCacheStats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions_capacity = evictions_capacity_;
  out.evictions_invalidated = evictions_invalidated_;
  out.evictions = evictions_capacity_ + evictions_invalidated_;
  out.entries = lru_.size();
  out.capacity = capacity_;
  return out;
}

}  // namespace ldb
