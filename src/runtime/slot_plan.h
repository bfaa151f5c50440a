// Plan-time slot compilation of physical plans (see frame.h for the why).
//
// CompileSlotPlan walks a Reduce-rooted PhysOp tree, assigns every range
// variable a dense frame slot, and compiles every operator expression
// (predicates, unnest paths, hash keys, group-by keys, heads) into CExpr
// trees with resolved slot references.
//
// Slot layout. Slots are assigned depth-first, left before right, so:
//   * a subtree's output bindings occupy a contiguous covering span
//     [out_lo, out_hi) — join concatenation is a range copy and outer-join
//     NULL padding is a range fill;
//   * out_hi always equals the subtree's allocation high-water mark; the
//     covering span may include dead slots (bindings hidden by a HashNest
//     or GroupJoin below), which are only ever copied or NULL-filled, never
//     read.
// Scratch slots for kLet (compiled lambda applications) are allocated after
// all operator slots; SlotPlan::n_slots sizes the whole frame.
//
// Scoping mirrors the materializing executor's Env exactly (eval_algebra.h):
// later bindings shadow earlier ones, a join's output scope is
// left-then-right, a HashNest replaces its child's scope with the group-by
// names plus the accumulated variable, and so does a GroupJoin (whose
// group slots and variable come after both inputs' slots).

#ifndef LAMBDADB_RUNTIME_SLOT_PLAN_H_
#define LAMBDADB_RUNTIME_SLOT_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/frame.h"
#include "src/runtime/physical_plan.h"

namespace ldb {

struct SlotOp;
using SlotOpPtr = std::shared_ptr<const SlotOp>;

/// One slot-compiled physical operator. Field use mirrors PhysOp with names
/// resolved to slots and expressions compiled.
struct SlotOp {
  PhysKind kind;
  SlotOpPtr left, right;

  int id = 0;          ///< stable pre-order id (keys shared build tables)
  int out_lo = 0;      ///< covering span of this subtree's output bindings
  int out_hi = 0;

  std::string extent;  // scans
  int var_slot = -1;   // scans/unnests bound variable; nest output variable
  CExprPtr pred;       // never null; compiled True() if none
  CExprPtr path;       // unnests
  CExprPtr head;       // nest/reduce
  MonoidKind monoid{};

  // kIndexScan
  std::string index_attr;
  CExprPtr index_key;

  // hash joins
  std::vector<CExprPtr> probe_keys;
  std::vector<CExprPtr> build_keys;
  bool build_is_left = false;

  // kHashNest, kGroupJoin: output slot + compiled key expression (over the
  // child scope; a GroupJoin's keys read its left input) per group-by
  // column; null_slots are the resolved null_vars.
  std::vector<std::pair<int, CExprPtr>> group_slots;
  std::vector<int> null_slots;

  // kGroupJoin (see PhysOp): probe_keys/guard read the left input,
  // build_keys the right; pred and head read the right input under the
  // aggregate and sorted strategies and both inputs under loop.
  GroupJoinStrategy strategy{};
  CExprPtr guard;
  BinOpKind sort_op{};
};

/// A compiled plan: the Reduce root plus the frame size (operator slots +
/// scratch slots for compiled lambda applications and query parameters).
struct SlotPlan {
  SlotOpPtr root;
  int n_slots = 0;

  /// Parameter name -> reserved frame slot. kParam expressions compile to
  /// plain kSlot reads; executors write the session's bindings into these
  /// slots of every frame before rows flow (ExecOptions::params).
  std::vector<std::pair<std::string, int>> param_slots;
};

/// Compiles `plan` (Reduce-rooted, as produced by PlanPhysical) against
/// `db` (extent references resolve to constants at compile time). Throws
/// EvalError on unbound variables.
SlotPlan CompileSlotPlan(const PhysPtr& plan, const Database& db);

/// Indented rendering with slot annotations (debugging / EXPLAIN).
std::string PrintSlotPlan(const SlotPlan& plan);

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_SLOT_PLAN_H_
