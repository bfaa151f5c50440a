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

#include <cstdint>
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

/// Per-worker utilization under morsel parallelism.
struct WorkerStats {
  int worker = -1;
  uint64_t morsels = 0;   ///< morsels this worker executed
  uint64_t rows = 0;      ///< spine rows this worker produced
  double busy_ns = 0;     ///< time spent executing morsels
};

/// One morsel: its extent range, the spine rows it produced, and its span
/// on the execution timeline, which request traces draw on one lane per
/// worker (src/obs/trace.h).
struct MorselStats {
  uint64_t index = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint64_t rows = 0;
  int worker = -1;      ///< worker that executed this morsel
  double start_ns = 0;  ///< offset from the start of the execution
  double dur_ns = 0;    ///< wall time this worker spent on the morsel
};

/// The run record: everything about one execution that is not per
/// operator. The executor fills it on every run, profiled or not, once, at
/// pipeline end, including on a QueryCancelled unwind (a partial record).
/// Its per-worker and per-morsel entries come from plain per-worker fields
/// summed after the join (no atomics), so the service keeps one for every
/// query: its counters feed the metrics registry (src/obs/metrics.h) and
/// its morsels become trace spans. A QueryProfiler holds a copy of the
/// record it ran with.
struct ExecTotals {
  std::string mode;          ///< "serial" | "spine-reduce" | "spine-nest"
  int threads = 1;           ///< workers a parallel run started
  uint64_t morsel_size = 0;  ///< 0 unless the run went parallel
  double wall_ns = 0;        ///< the execution's wall time
  double prebuild_ns = 0;    ///< a parallel run's serial build of the
                             ///< shared join tables, before any morsel
  uint64_t root_rows = 0;    ///< rows folded by the root Reduce
  std::vector<WorkerStats> workers;  ///< by worker id (empty when serial)
  std::vector<MorselStats> morsels;  ///< by morsel index (empty when serial)
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
  /// The run record's sink. Null (the default): the executor keeps the
  /// record in the profiler, if any, or drops it. Non-null: filled at
  /// pipeline end, including on a QueryCancelled unwind (a partial record),
  /// so service metrics and traces count cancelled work too.
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
