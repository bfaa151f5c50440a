// Pipelined execution of physical plans: the production (slot-frame) engine.
//
// The plan is first slot-compiled (slot_plan.h) so rows are flat Value
// frames and variable references are integer slots; iterators implement the
// Volcano open/next/close protocol and communicate through a shared
// per-thread frame. With ExecOptions::n_threads > 1 the engine runs
// morsel-driven parallel: the driving table scan is split into morsels,
// workers execute the streaming spine against shared read-only hash/join
// build tables, and per-morsel partial accumulators (or partial group tables
// for a spine HashNest) are merged in morsel order — results are identical to
// the serial path (see docs/EXECUTOR.md for why).
//
// The two reference evaluators the paper's theorems are checked against live
// elsewhere: eval_calculus (D1–D7 nested loops) and eval_algebra (Figure 5
// materializing semantics).
//
// Blocking points are exactly the hash builds (join build sides, grouping
// tables) — everything else streams, and the root reduce stops pulling the
// moment a quantifier saturates.

#ifndef LAMBDADB_RUNTIME_EXEC_PIPELINE_H_
#define LAMBDADB_RUNTIME_EXEC_PIPELINE_H_

#include "src/runtime/physical_plan.h"
#include "src/runtime/slot_plan.h"

namespace ldb {

/// Executes a Reduce-rooted physical plan: slot-compiles it, then runs
/// ExecuteSlotPlan. Short-circuits saturated quantifier roots; `options`
/// selects the degree of parallelism.
Value ExecutePipelined(const PhysPtr& plan, const Database& db,
                       const ExecOptions& options = {});

/// Executes an already slot-compiled plan (serial or parallel per
/// `options`). Exposed so benchmarks can separate compile time from run
/// time; `plan` must come from CompileSlotPlan against the same `db`.
Value ExecuteSlotPlan(const SlotPlan& plan, const Database& db,
                      const ExecOptions& options = {});

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_EXEC_PIPELINE_H_
