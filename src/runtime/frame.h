// Slot-compiled expressions and flat execution frames.
//
// The physical executor used to evaluate operator predicates/heads through
// the calculus interpreter, resolving every variable reference by a linear
// string comparison against an Env rebuilt (copied) for every row. Slot
// compilation moves all name resolution to plan time: a pass over the
// physical plan (slot_plan.h) assigns each range variable a dense integer
// slot and rewrites every expression into a CExpr tree whose variable
// references carry the resolved slot index. At run time a row is a flat
// `std::vector<Value>` frame indexed by slot — binding a variable is one
// vector store, reading it one vector load, and concatenating join sides is
// a contiguous range copy.
//
// Every expression of an unnested plan compiles: unnesting leaves no
// comprehension behind (Theorem 1), so the engine never calls the calculus
// interpreter.

#ifndef LAMBDADB_RUNTIME_FRAME_H_
#define LAMBDADB_RUNTIME_FRAME_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/expr.h"
#include "src/obs/resource.h"
#include "src/runtime/database.h"

namespace ldb {

class CancelToken;  // fwd (src/runtime/cancel.h)

/// A runtime row: one Value per slot. Sized once per executing thread
/// (SlotPlan::n_slots) and reused for every row that flows through the
/// pipeline.
using Frame = std::vector<Value>;

struct CExpr;
using CExprPtr = std::shared_ptr<const CExpr>;

enum class CExprKind {
  kSlot,      ///< frame[slot] — a resolved range-variable reference
  kLit,       ///< constant (literals, monoid zeros, resolved extents)
  kRecord,
  kProj,
  kIf,
  kBinOp,
  kUnOp,
  kLet,       ///< evaluate `a` into a scratch slot, then evaluate `b`
  kMerge,
};

/// A compiled expression. Fields not applicable to a node's kind are
/// default-initialized (mirrors Expr).
struct CExpr {
  CExprKind kind;
  int slot = -1;       // kSlot: source; kLet: scratch target
  int proj_id = -1;    // kProj: plan-unique id for the evaluator's cache
  Value literal;       // kLit
  std::string name;    // kProj attribute
  BinOpKind bin_op{};  // kBinOp
  UnOpKind un_op{};    // kUnOp
  MonoidKind monoid{}; // kMerge
  ShapePtr shape;                // kRecord: names shared by every record built
  std::vector<CExprPtr> fields;  // kRecord: one per shape field
  CExprPtr a, b, c;
};

/// Evaluates compiled expressions against a frame. One instance per
/// executing thread (it caches projection lookups). The frame is non-const
/// because kLet writes scratch slots.
class FrameEvaluator {
 public:
  explicit FrameEvaluator(const Database& db) : db_(db) {}

  Value Eval(const CExpr& e, Frame& frame);

  /// NULL counts as false; non-bool throws (same contract as ExprEvaluator).
  bool EvalPred(const CExpr& e, Frame& frame);

  /// Copy-free evaluation for operand positions: slot reads, literals, and
  /// projections return a pointer to existing storage (the frame, the plan,
  /// the object store, or `*scratch` when the result had to be computed).
  /// Copying a heap-backed Value (long string, tuple, collection) costs an
  /// atomic increment and its destruction a decrement, which comparison-
  /// heavy inner loops skip this way. The pointer is valid until `frame`,
  /// `*scratch`, or the database is next mutated.
  const Value* EvalPtr(const CExpr& e, Frame& frame, Value* scratch);

  /// Cancellation token shared with the iterators built over this
  /// evaluator.
  void SetCancel(const CancelToken* cancel) { cancel_ = cancel; }
  const CancelToken* cancel() const { return cancel_; }

  /// Arms this evaluator's memory tracker against a query's resource
  /// context (nullptr disarms). Iterators built over this evaluator charge
  /// their buffered state through mem().
  void SetResource(obs::QueryResourceContext* rc) { mem_.Arm(rc); }
  obs::MemoryTracker& mem() { return mem_; }

  const Database& db() const { return db_; }

 private:
  // Per-kProj-site memo: schema-homogeneous inputs make the object store
  // and the tuple shape stable across rows, so each is resolved once and
  // then validated with one integer and one pointer comparison per row
  // (falling back to the full lookup on mismatch — semantics are identical
  // to Database::Navigate). The memo owns a reference on the shape, so its
  // address cannot be reused by another shape while cached. Per-evaluator
  // state, so thread-safe: workers each own a FrameEvaluator.
  struct ProjCache {
    const std::vector<Value>* class_vec = nullptr;  ///< resolved object store
    uint32_t class_id = 0;                          ///< class it belongs to
    ShapePtr shape;                                 ///< last tuple shape hit
    size_t field_idx = 0;                           ///< its field position
  };

  const Value* EvalProjPtr(const CExpr& e, const Value& base, Value* scratch);

  const Database& db_;
  const CancelToken* cancel_ = nullptr;
  obs::MemoryTracker mem_;
  std::vector<ProjCache> proj_cache_;  // indexed by CExpr::proj_id
};

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_FRAME_H_
