// The physical plan layer (paper Section 6: the prototype's final stage
// "translat[es] algebraic forms into physical plans").
//
// A physical plan makes every execution decision explicit that the logical
// algebra leaves open: which join algorithm runs (hash vs nested-loop, with
// extracted equi-keys), which side builds the hash table, whether a scan
// goes through an index, and where grouping hash tables sit. Two engines
// consume it:
//
//   * ExecutePipelined (exec_pipeline.h) — Volcano-style open/next/close
//     iterators; rows flow one at a time, quantifier roots stop pulling as
//     soon as they saturate;
//   * the materializing executor (eval_algebra.h) predates this layer and
//     remains as a reference implementation; both engines are tested to
//     agree everywhere.

#ifndef LAMBDADB_RUNTIME_PHYSICAL_PLAN_H_
#define LAMBDADB_RUNTIME_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/algebra.h"
#include "src/runtime/database.h"
#include "src/runtime/physical.h"

namespace ldb {

struct PhysOp;
using PhysPtr = std::shared_ptr<const PhysOp>;

enum class PhysKind {
  kUnitRow,        ///< one empty row
  kTableScan,      ///< full extent scan + selection
  kIndexScan,      ///< index lookup + residual selection
  kFilter,         ///< predicate filter
  kNLJoin,         ///< nested-loop (inner) join; right side buffered
  kHashJoin,       ///< hash (inner) join; build side buffered
  kNLOuterJoin,    ///< nested-loop left outer-join
  kHashOuterJoin,  ///< hash left outer-join; right side builds
  kUnnest,         ///< per-row collection expansion (drops empty)
  kOuterUnnest,    ///< per-row expansion with NULL padding
  kHashNest,       ///< blocking hash grouping (the Γ operator)
  kGroupJoin,      ///< Γ over =⋈ fused: one aggregate per left row
  kReduce,         ///< root fold, with quantifier short-circuit
};

/// How a GroupJoin finds each left row's matching right rows (chosen by
/// PlanPhysical from the predicate's shape; docs/EXECUTOR.md).
enum class GroupJoinStrategy {
  kAggregate,  ///< right side pre-aggregated per equality key (or in total)
  kSorted,     ///< right side sorted on b, prefix/suffix aggregates; a op b
  kLoop,       ///< fold over the key's hash bucket, or the whole buffer
};

/// One physical operator. Field use mirrors AlgOp, plus the physical
/// decisions (keys, build side, index attribute).
struct PhysOp {
  PhysKind kind;
  PhysPtr left, right;

  std::string extent;  // scans
  std::string var;     // scans/unnests: bound variable; nest: output variable
  ExprPtr pred;        // residual predicate (never null; True() if none)
  ExprPtr path;        // unnests
  ExprPtr head;        // nest/reduce
  MonoidKind monoid{};

  // kIndexScan
  std::string index_attr;
  ExprPtr index_key;

  // hash joins
  std::vector<ExprPtr> probe_keys;  // evaluated over the probe (streamed) side
  std::vector<ExprPtr> build_keys;  // evaluated over the build (buffered) side
  bool build_is_left = false;       ///< inner hash join built on the left input

  // kHashNest, kGroupJoin
  std::vector<std::pair<std::string, ExprPtr>> group_by;
  std::vector<std::string> null_vars;

  // kGroupJoin. probe_keys/build_keys hold the equality keys (aggregate,
  // loop) or the comparison's two sides a and b (sorted: `a sort_op b`);
  // `pred` is checked per right row and `guard` once per left row.
  GroupJoinStrategy strategy{};
  ExprPtr guard;
  BinOpKind sort_op{};

  // padding variables for outer joins (the build/buffered side's variables)
  std::vector<std::string> pad_vars;
};

/// Translates a logical plan into a physical one, making all algorithm
/// choices using `db`'s indexes/statistics and `options`. The logical plan
/// must be Reduce-rooted (as produced by the unnesting algorithm).
PhysPtr PlanPhysical(const AlgPtr& plan, const Database& db,
                     const PhysicalOptions& options = {});

/// Operator-kind mnemonic ("TableScan", "HashJoin", ...).
const char* PhysKindName(PhysKind kind);

/// "aggregate" | "sorted" | "loop".
const char* GroupJoinStrategyName(GroupJoinStrategy strategy);

/// One-line description of a single operator (no children, no newline) —
/// the per-node text shared by PrintPhysicalPlan and ExplainAnalyze.
std::string DescribePhysOp(const PhysOp& op);

/// Indented rendering of a physical plan.
std::string PrintPhysicalPlan(const PhysPtr& plan);

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_PHYSICAL_PLAN_H_
