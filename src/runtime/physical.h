// Physical operator selection for algebra plans.
//
// Unnesting by itself "does not result in performance improvement; it makes
// possible other optimizations" (paper, Section 1). The optimization it
// enables here is the classic one: once a correlated subquery has become a
// (outer-)join with an equality predicate, the join can run as a HASH join
// instead of a nested loop. This module analyses join predicates and
// extracts hash keys; the executor (eval_algebra) consults it.
//
// PhysicalOptions.use_hash_joins is the ablation knob for experiment P-PHYS:
// with it off, the unnested plan runs every join as a nested loop and the
// benchmark shows unnesting alone is roughly cost-neutral.

#ifndef LAMBDADB_RUNTIME_PHYSICAL_H_
#define LAMBDADB_RUNTIME_PHYSICAL_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/algebra.h"

namespace ldb {

class CancelToken;  // fwd (src/runtime/cancel.h)

namespace obs {
class QueryResourceContext;  // fwd (src/obs/resource.h)
}  // namespace obs

/// Execution options for the algebra executor.
struct PhysicalOptions {
  /// Use hash (outer-)joins when the predicate has equality conjuncts whose
  /// two sides split across the join inputs; otherwise nested loops. Off,
  /// it also limits every GroupJoin to its `loop` strategy over a buffer
  /// (no keys, no pre-aggregated or sorted summary), so the ablation still
  /// measures nested loops end to end.
  bool use_hash_joins = true;
  /// Use a hash index (Database::BuildIndex) instead of a full extent scan
  /// when a scan predicate pins an indexed attribute to a constant.
  bool use_indexes = true;
};

class QueryProfiler;  // fwd (src/runtime/profile.h)

/// Always-on execution totals, filled by the executor regardless of whether
/// a profiler is attached. The counters are kept by each run with plain
/// locals (one increment per root row; no atomics, no per-operator state)
/// and written out once at pipeline end, so they are cheap enough for the
/// service to collect on every query. The runtime layer knows nothing about
/// metrics; the QueryService flushes these into its MetricsRegistry
/// (src/obs/metrics.h).
struct ExecTotals {
  uint64_t root_rows = 0;   ///< rows folded by the root Reduce
  uint64_t morsels = 0;     ///< morsels dispatched (0 for serial runs)
  int workers = 0;          ///< worker threads that ran (0 for serial)
  double busy_ns = 0;       ///< summed worker busy time (0 for serial)
  const char* mode = "serial";  ///< "serial" | "spine-reduce" | "spine-nest"
};

/// Options for the pipelined executor (ExecutePipelined).
struct ExecOptions {
  /// Worker threads for morsel-driven parallelism. 1 = serial. Parallelism
  /// only engages when the plan's streaming spine is driven by a table scan
  /// large enough to split into more than one morsel; results are always
  /// identical to the serial path (see docs/EXECUTOR.md).
  int n_threads = 1;
  /// Rows per morsel handed to a worker at a time.
  size_t morsel_size = 2048;
  /// Per-operator runtime profiling sink (docs/OBSERVABILITY.md). Null (the
  /// default) disables profiling: the executor builds the iterator tree
  /// without counting decorators, and the root fold, the builds and the
  /// nest drain's caller test the pointer once, when they finish. The off
  /// cost is a pointer test per operator at plan setup, per build or fold,
  /// and per saturated GroupJoin fold, not per row. Non-null: row counts,
  /// Next() call counts, open/build and cumulative execution times,
  /// hash-build sizes, and quantifier short-circuits accumulate into
  /// *profiler; under morsel parallelism each worker keeps private counters
  /// merged at pipeline end.
  QueryProfiler* profiler = nullptr;
  /// Cooperative cancellation token (src/runtime/cancel.h). Null (the
  /// default) disables the checks entirely. Non-null: the executor polls it
  /// at morsel boundaries and inside hash-build/nest/buffer loops and abort
  /// by throwing QueryCancelled with every worker thread joined.
  const CancelToken* cancel = nullptr;
  /// Bindings for $1/$name query parameters. Null when the plan has none;
  /// executing a parameterized plan without its bindings is an EvalError.
  /// The executor writes these into reserved frame slots before rows flow.
  const std::map<std::string, Value>* params = nullptr;
  /// Always-on execution totals sink. Null (the default) skips the writes;
  /// non-null: filled at pipeline end, including on a QueryCancelled unwind
  /// (partial totals), so service metrics count cancelled work too.
  ExecTotals* totals = nullptr;
  /// Per-query resource context (src/obs/resource.h). Null (the default)
  /// disarms the memory trackers entirely. Non-null: the executor charges
  /// buffered operator state (join builds, nest groups, collection folds)
  /// and publish rows-so-far against it, and abort with QueryMemoryExceeded
  /// when a charge pushes the query past the context's budget. The context
  /// must outlive the execution.
  obs::QueryResourceContext* resource = nullptr;
};

/// The result of analysing a join predicate: `left_keys[i] == right_keys[i]`
/// are the hashable equalities (left_keys evaluate over the left input's
/// variables, right_keys over the right's); `residual` is the conjunction of
/// everything else (evaluated after the key match).
struct JoinKeys {
  std::vector<ExprPtr> left_keys;
  std::vector<ExprPtr> right_keys;
  ExprPtr residual;  // never null; True() if nothing remains

  bool hashable() const { return !left_keys.empty(); }
};

/// True if every free variable of `e` is in `vars`. Extent names count as
/// free variables, so an expression that reads an extent is never within.
bool ReadsOnly(const ExprPtr& e, const std::vector<std::string>& vars);

/// Splits `pred` into hash keys and a residual with respect to the variable
/// sets produced by the two join inputs.
JoinKeys ExtractEquiKeys(const ExprPtr& pred,
                         const std::vector<std::string>& left_vars,
                         const std::vector<std::string>& right_vars);

/// The result of matching a scan predicate against an index: `attr` is the
/// indexed attribute, `key` the constant expression it is pinned to, and
/// `residual` the rest of the predicate (checked per fetched object).
struct IndexMatch {
  std::string attr;
  ExprPtr key;
  ExprPtr residual;
};

class Database;  // fwd

/// If `scan`'s predicate contains a conjunct `var.attr = k` (or `k =
/// var.attr`) with `k` variable-free and db has an index on (extent, attr),
/// fills *out and returns true.
bool MatchIndexScan(const AlgOp& scan, const Database& db, IndexMatch* out);

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_PHYSICAL_H_
