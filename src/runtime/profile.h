// Per-operator runtime profiling (the EXPLAIN ANALYZE substrate).
//
// A QueryProfiler collects one OperatorStats per physical operator, keyed by
// the operator's stable pre-order id — the numbering CompileSlotPlan assigns
// (root Reduce = 0, then left subtree, then right), which the EXPLAIN
// ANALYZE printer reproduces by walking the PhysOp tree in the same order.
// Profiling is opt-in through ExecOptions::profiler: when the pointer is
// null the executor builds the iterator tree without counting decorators,
// and the root fold, the builds and the nest drain's caller keep their
// counters in locals and test the pointer once, when they finish. Disabled
// profiling costs a pointer test per operator at pipeline construction, per
// build or fold, and per saturated GroupJoin fold, and nothing per row.
//
// Under morsel-driven parallelism every worker owns a private QueryProfiler
// (no shared counters, no atomics on the hot path); the workers' profilers,
// the shared-table prebuild pass, and the serial tail above a spine
// HashNest all merge into the caller's profiler when the pipeline ends.
// Row counts therefore sum to exactly the serial totals (the parallel
// executor produces identical results, see docs/EXECUTOR.md); only
// next_calls and wall times differ, since each worker pays its own
// end-of-stream call and times accumulate across threads.
//
// ProfileToJson/ProfileFromJson round-trip the whole profile so benchmarks
// and CI can store and diff profiles (docs/OBSERVABILITY.md has the schema).

#ifndef LAMBDADB_RUNTIME_PROFILE_H_
#define LAMBDADB_RUNTIME_PROFILE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/physical_plan.h"

namespace ldb {

struct CompileTrace;  // fwd (src/core/optimizer.h)

/// Counters for one physical operator. Times are cumulative nanoseconds and
/// include the operator's children (Volcano iterators nest); "self" time is
/// derived at rendering time by subtracting child totals.
struct OperatorStats {
  int op_id = -1;       ///< pre-order id; matches SlotOp::id
  PhysKind kind{};
  std::string label;    ///< e.g. "TableScan(Employees)"

  uint64_t opens = 0;          ///< Open() calls (morsels re-open per range)
  uint64_t next_calls = 0;     ///< Next() calls, incl. the end-of-stream one
  uint64_t rows_out = 0;       ///< rows produced (Next() == true)
  double open_ns = 0;          ///< time in Open() — hash/buffer builds
  double next_ns = 0;          ///< cumulative time in Next(), children incl.

  uint64_t build_rows = 0;     ///< join build-side rows buffered/hashed
  uint64_t groups = 0;         ///< HashNest distinct groups; GroupJoin
                               ///< summary entries
  uint64_t short_circuits = 0; ///< quantifier saturation stops (Reduce,
                               ///< and GroupJoin folds per left row)
  uint64_t mem_bytes = 0;      ///< estimated bytes this operator buffered
                               ///< (join builds, nest state; 0 = stateless)

  /// Adds another run's (or worker's) counters for the same operator.
  void MergeFrom(const OperatorStats& o);
};

/// Per-worker utilization totals under morsel parallelism.
struct WorkerStats {
  int worker = -1;
  uint64_t morsels = 0;   ///< morsels this worker executed
  uint64_t rows = 0;      ///< spine rows this worker produced
  double busy_ns = 0;     ///< time spent executing morsels
};

/// Per-morsel accounting: extent range, spine rows produced, and the span
/// on the execution timeline (relative to the parallel run's start) so the
/// trace exporter (src/obs/trace_export.h) can draw one lane per worker.
struct MorselStats {
  uint64_t index = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint64_t rows = 0;
  int worker = -1;      ///< worker that executed this morsel
  double start_ns = 0;  ///< offset from the run's first morsel grab
  double dur_ns = 0;    ///< wall time this worker spent on the morsel
};

/// Profile of one pipeline execution. Operator registration is single-
/// threaded by construction: workers each own a private profiler and merge
/// after the fact, so no member is atomic.
class QueryProfiler {
 public:
  QueryProfiler() = default;
  QueryProfiler(QueryProfiler&&) = default;
  QueryProfiler& operator=(QueryProfiler&&) = default;
  QueryProfiler(const QueryProfiler&) = delete;
  QueryProfiler& operator=(const QueryProfiler&) = delete;

  /// Returns the stats slot for `op_id`, creating it on first sight. The
  /// pointer stays valid for the profiler's lifetime.
  OperatorStats* Register(int op_id, PhysKind kind, const std::string& label);

  /// Stats for an operator, or nullptr if it never registered.
  const OperatorStats* Find(int op_id) const;

  /// Merges another profiler's operators (by id) and parallel metadata.
  void MergeFrom(const QueryProfiler& other);

  /// All operators, sorted by pre-order id.
  std::vector<const OperatorStats*> Operators() const;

  // -- execution-level metadata ---------------------------------------------
  int threads_used = 1;
  uint64_t morsel_size = 0;       ///< 0 until a parallel run sets it
  std::string parallel_mode;      ///< "serial" | "spine-reduce" | "spine-nest"
  double wall_ns = 0;             ///< end-to-end execution wall time
  std::vector<WorkerStats> workers;
  std::vector<MorselStats> morsels;

  // -- plan-cache metadata (filled by the query service; docs/SERVICE.md) ----
  uint64_t plan_cached = 0;       ///< 1 when this execution reused a cached plan
  uint64_t cache_hits = 0;        ///< cache-wide hit total at execute time
  uint64_t cache_misses = 0;      ///< cache-wide miss (compile) total
  uint64_t cache_evictions = 0;   ///< cache-wide LRU eviction total

 private:
  std::deque<OperatorStats> ops_;  // deque: stable addresses across growth
  std::unordered_map<int, OperatorStats*> by_id_;
};

/// Serializes a profile as a self-contained JSON object.
std::string ProfileToJson(const QueryProfiler& prof);

/// Parses a profile previously produced by ProfileToJson. Throws ParseError
/// on malformed input. ProfileToJson(ProfileFromJson(s)) == s for any s the
/// serializer produced.
QueryProfiler ProfileFromJson(const std::string& json);

/// Serializes an optimizer trace (stage wall times + rule firings) as JSON.
std::string CompileTraceToJson(const CompileTrace& trace);

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_PROFILE_H_
