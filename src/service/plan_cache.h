// LRU cache of compiled query plans (docs/SERVICE.md).
//
// The key is the *normalized* calculus term itself, plus a version stamp
// covering the schema, catalog statistics, and plan-shaping optimizer flags.
// Normalization is strongly normalizing and confluent on this fragment, so
// the normal form is a canonical representative of the query: two query
// texts that normalize to the same term, up to the names of its bound
// variables, are the same query and share a plan. Terms compare with
// ExprKeyEqual and hash with ExprKeyHash (core/expr.h); nothing is
// printed. Parameters ($1 / $name) survive normalization as opaque leaves
// that compare by name, so one cached plan serves every binding.
//
// Cached plans are immutable and handed out as shared_ptr<const ...>: an
// eviction never invalidates a plan that a concurrent execution still
// holds (or that a Statement handle is bound to). All counters are
// cache-wide totals of lookups, read through QueryService::cache_stats()
// and the ldb_plan_cache_* metrics; whether one request compiled is its
// query-log record's plan_cached. Executing a bound, current Statement
// performs no lookup and moves none of them.

#ifndef LAMBDADB_SERVICE_PLAN_CACHE_H_
#define LAMBDADB_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/optimizer.h"
#include "src/core/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/runtime/physical_plan.h"
#include "src/runtime/slot_plan.h"

namespace ldb {

/// What a plan is cached under: the query's normal form, the version stamp
/// it was compiled under, and the directions of a top-level `order by`,
/// which live outside the term (`order by x asc` and `desc` normalize
/// alike). The hash is computed once, by the constructor.
struct PlanKey {
  PlanKey() = default;
  PlanKey(ExprPtr term, std::string stamp, std::vector<bool> descending);

  ExprPtr term;                  ///< normalized calculus
  std::string stamp;             ///< schema + catalog + flags fingerprint
  std::vector<bool> descending;  ///< one per `order by` key; empty: none
  size_t hash = 0;

  /// Top-level `order by`: the result is sorted after execution.
  bool ordered() const { return !descending.empty(); }
  /// Terms by ExprKeyEqual; stamps and directions exactly.
  bool operator==(const PlanKey& other) const;
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& key) const { return key.hash; }
};

/// A fully compiled, engine-ready query. Built once per distinct normalized
/// form and shared read-only by every execution (any number of concurrent
/// sessions, and every Statement handle bound to it).
struct PreparedPlan {
  PlanKey key;                ///< what this plan is stored under
  CompiledQuery compiled;     ///< calculus .. simplified algebra
  PhysPtr physical;           ///< physical plan (slow-query plan text)
  SlotPlan slots;             ///< slot-compiled plan (what executes)
};

/// Point-in-time cache counters. `evictions` is the lifetime total;
/// the two `evictions_*` fields split it by reason so metrics can tell LRU
/// pressure (capacity) apart from plans dropped because the schema/catalog/
/// flags version stamp moved on (invalidated — includes Clear()).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;  ///< evictions_capacity + evictions_invalidated
  uint64_t evictions_capacity = 0;
  uint64_t evictions_invalidated = 0;
  size_t entries = 0;
  size_t capacity = 0;
};

/// Thread-safe LRU map from PlanKey to PreparedPlan.
class PlanCache {
 public:
  /// Optional metric instruments updated at event time (in addition to the
  /// internal counters, which exist regardless). All pointers may be null.
  struct MetricHooks {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions_capacity = nullptr;
    obs::Counter* evictions_invalidated = nullptr;
    obs::Gauge* entries = nullptr;
  };

  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// Installs metric instruments. Takes the cache mutex, so installing late
  /// (after concurrent use began) is merely pointless, not a data race.
  void SetMetricHooks(MetricHooks hooks) LDB_EXCLUDES(mu_);

  /// Returns the cached plan and counts a hit (moving the entry to the
  /// front), or nullptr and counts a miss.
  std::shared_ptr<const PreparedPlan> Lookup(const PlanKey& key)
      LDB_EXCLUDES(mu_);

  /// Inserts a freshly compiled plan under its own key, evicting the
  /// least-recently-used entry when over capacity. Inserting an existing
  /// key replaces that entry's plan and refreshes it.
  void Insert(std::shared_ptr<const PreparedPlan> plan) LDB_EXCLUDES(mu_);

  /// Drops every entry (counters are kept — they are lifetime totals).
  /// Dropped entries count as invalidation evictions.
  void Clear() LDB_EXCLUDES(mu_);

  /// Drops every entry whose key's version stamp is not `stamp`. Used when
  /// the catalog/schema changes: surviving entries were compiled under the
  /// current stamp. Returns the number of entries dropped; each counts as
  /// an invalidation eviction.
  size_t EvictNotMatching(const std::string& stamp) LDB_EXCLUDES(mu_);

  PlanCacheStats Stats() const LDB_EXCLUDES(mu_);

 private:
  using LruList = std::list<std::shared_ptr<const PreparedPlan>>;

  mutable Mutex mu_;
  MetricHooks hooks_ LDB_GUARDED_BY(mu_);
  const size_t capacity_;  ///< immutable after construction
  LruList lru_ LDB_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<PlanKey, LruList::iterator, PlanKeyHash> by_key_
      LDB_GUARDED_BY(mu_);
  uint64_t hits_ LDB_GUARDED_BY(mu_) = 0;
  uint64_t misses_ LDB_GUARDED_BY(mu_) = 0;
  uint64_t evictions_capacity_ LDB_GUARDED_BY(mu_) = 0;
  uint64_t evictions_invalidated_ LDB_GUARDED_BY(mu_) = 0;
};

}  // namespace ldb

#endif  // LAMBDADB_SERVICE_PLAN_CACHE_H_
