#include "src/runtime/slot_plan.h"

#include <sstream>

#include "src/core/pretty.h"
#include "src/runtime/error.h"

namespace ldb {

namespace {

// Visible bindings at a point in the plan; later entries shadow earlier ones
// (matching Env's reverse-order lookup).
struct Scope {
  std::vector<std::pair<std::string, int>> vars;

  int Lookup(const std::string& name) const {
    for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    return -1;
  }
  void Bind(const std::string& name, int slot) { vars.emplace_back(name, slot); }
  void Append(const Scope& other) {
    vars.insert(vars.end(), other.vars.begin(), other.vars.end());
  }
};

// Operator slots a subtree needs (scratch slots are counted separately).
int CountOpSlots(const PhysPtr& p) {
  if (!p) return 0;
  int n = CountOpSlots(p->left) + CountOpSlots(p->right);
  switch (p->kind) {
    case PhysKind::kTableScan:
    case PhysKind::kIndexScan:
    case PhysKind::kUnnest:
    case PhysKind::kOuterUnnest:
      return n + 1;
    case PhysKind::kHashNest:
    case PhysKind::kGroupJoin:
      return n + static_cast<int>(p->group_by.size()) + 1;
    default:
      return n;
  }
}

class Compiler {
 public:
  Compiler(const Database& db, int n_op_slots)
      : db_(db), next_scratch_(n_op_slots) {}

  std::shared_ptr<SlotOp> CompileOp(const PhysPtr& p, Scope* out_scope) {
    LDB_INTERNAL_CHECK(p != nullptr, "null physical operator");
    auto op = std::make_shared<SlotOp>();
    op->kind = p->kind;
    op->id = next_id_++;
    op->monoid = p->monoid;
    op->out_lo = next_slot_;

    switch (p->kind) {
      case PhysKind::kUnitRow:
        break;
      case PhysKind::kTableScan: {
        op->extent = p->extent;
        op->var_slot = next_slot_++;
        Scope s;
        s.Bind(p->var, op->var_slot);
        op->pred = CompileExpr(p->pred, s);
        *out_scope = std::move(s);
        break;
      }
      case PhysKind::kIndexScan: {
        op->extent = p->extent;
        op->index_attr = p->index_attr;
        op->var_slot = next_slot_++;
        op->index_key = CompileExpr(p->index_key, Scope{});  // opened keyless
        Scope s;
        s.Bind(p->var, op->var_slot);
        op->pred = CompileExpr(p->pred, s);
        *out_scope = std::move(s);
        break;
      }
      case PhysKind::kFilter: {
        Scope s;
        op->left = CompileOp(p->left, &s);
        op->out_lo = op->left->out_lo;
        op->pred = CompileExpr(p->pred, s);
        *out_scope = std::move(s);
        break;
      }
      case PhysKind::kUnnest:
      case PhysKind::kOuterUnnest: {
        Scope s;
        op->left = CompileOp(p->left, &s);
        op->out_lo = op->left->out_lo;
        op->path = CompileExpr(p->path, s);  // over the child scope
        op->var_slot = next_slot_++;
        s.Bind(p->var, op->var_slot);        // shadows like Env::With
        op->pred = CompileExpr(p->pred, s);
        *out_scope = std::move(s);
        break;
      }
      case PhysKind::kNLJoin:
      case PhysKind::kNLOuterJoin: {
        Scope ls, rs;
        op->left = CompileOp(p->left, &ls);
        op->right = CompileOp(p->right, &rs);
        op->out_lo = op->left->out_lo;
        Scope s = ls;
        s.Append(rs);  // right binds after (and shadows) left, like Concat
        op->pred = CompileExpr(p->pred, s);
        *out_scope = std::move(s);
        break;
      }
      case PhysKind::kHashJoin:
      case PhysKind::kHashOuterJoin: {
        Scope ls, rs;
        op->left = CompileOp(p->left, &ls);
        op->right = CompileOp(p->right, &rs);
        op->out_lo = op->left->out_lo;
        op->build_is_left = p->build_is_left;
        const Scope& build = p->build_is_left ? ls : rs;
        const Scope& probe = p->build_is_left ? rs : ls;
        for (const ExprPtr& k : p->build_keys) {
          op->build_keys.push_back(CompileExpr(k, build));
        }
        for (const ExprPtr& k : p->probe_keys) {
          op->probe_keys.push_back(CompileExpr(k, probe));
        }
        Scope s = ls;
        s.Append(rs);
        op->pred = CompileExpr(p->pred, s);
        *out_scope = std::move(s);
        break;
      }
      case PhysKind::kHashNest: {
        Scope child;
        op->left = CompileOp(p->left, &child);
        // Group keys, padding test, residual predicate, and head all read
        // the child scope; the output scope is group names + var only.
        op->out_lo = next_slot_;
        Scope s;
        for (const auto& [name, expr] : p->group_by) {
          int slot = next_slot_++;
          op->group_slots.emplace_back(slot, CompileExpr(expr, child));
          s.Bind(name, slot);
        }
        for (const std::string& v : p->null_vars) {
          int slot = child.Lookup(v);
          LDB_INTERNAL_CHECK(slot >= 0, "nest null-var not bound");
          op->null_slots.push_back(slot);
        }
        op->pred = CompileExpr(p->pred, child);
        op->head = CompileExpr(p->head, child);
        op->var_slot = next_slot_++;
        s.Bind(p->var, op->var_slot);
        *out_scope = std::move(s);
        break;
      }
      case PhysKind::kGroupJoin: {
        Scope ls, rs;
        op->left = CompileOp(p->left, &ls);
        op->right = CompileOp(p->right, &rs);
        op->strategy = p->strategy;
        op->sort_op = p->sort_op;
        for (const ExprPtr& k : p->probe_keys) {
          op->probe_keys.push_back(CompileExpr(k, ls));
        }
        for (const ExprPtr& k : p->build_keys) {
          op->build_keys.push_back(CompileExpr(k, rs));
        }
        op->guard = CompileExpr(p->guard, ls);
        Scope joined = ls;
        joined.Append(rs);
        op->pred = CompileExpr(p->pred, joined);
        op->head = CompileExpr(p->head, joined);
        for (const std::string& v : p->null_vars) {
          int slot = rs.Lookup(v);
          LDB_INTERNAL_CHECK(slot >= 0, "group-join null-var not bound");
          op->null_slots.push_back(slot);
        }
        // HashNest's output convention: group slots copied from the left
        // row, then the aggregate, all after both inputs' slots.
        op->out_lo = next_slot_;
        Scope s;
        for (const auto& [name, expr] : p->group_by) {
          int slot = next_slot_++;
          op->group_slots.emplace_back(slot, CompileExpr(expr, ls));
          s.Bind(name, slot);
        }
        op->var_slot = next_slot_++;
        s.Bind(p->var, op->var_slot);
        *out_scope = std::move(s);
        break;
      }
      case PhysKind::kReduce: {
        Scope s;
        op->left = CompileOp(p->left, &s);
        op->out_lo = op->left->out_lo;
        op->pred = CompileExpr(p->pred, s);
        op->head = CompileExpr(p->head, s);
        *out_scope = std::move(s);
        break;
      }
    }
    op->out_hi = next_slot_;
    return op;
  }

  CExprPtr CompileExpr(const ExprPtr& e, const Scope& scope) {
    if (!e) throw EvalError("null expression");
    auto out = std::make_shared<CExpr>();
    switch (e->kind) {
      case ExprKind::kVar: {
        int slot = scope.Lookup(e->name);
        if (slot >= 0) {
          out->kind = CExprKind::kSlot;
          out->slot = slot;
          return out;
        }
        if (db_.schema().IsExtent(e->name)) {
          // Extents are immutable during execution: resolve now, once.
          out->kind = CExprKind::kLit;
          out->literal = Value::Set(db_.Extent(e->name));
          return out;
        }
        throw EvalError("unbound variable '" + e->name + "'");
      }
      case ExprKind::kParam: {
        // One reserved slot per distinct parameter name; the executor fills
        // it from the bindings before any row flows, so a parameter read is
        // the same one vector load as a range-variable read.
        out->kind = CExprKind::kSlot;
        out->slot = ParamSlot(e->name);
        return out;
      }
      case ExprKind::kLiteral:
        out->kind = CExprKind::kLit;
        out->literal = e->literal;
        return out;
      case ExprKind::kRecord: {
        out->kind = CExprKind::kRecord;
        std::vector<std::string> names;
        for (const auto& [n, f] : e->fields) {
          names.push_back(n);
          out->fields.push_back(CompileExpr(f, scope));
        }
        out->shape = Shape::Make(std::move(names));
        return out;
      }
      case ExprKind::kProj:
        out->kind = CExprKind::kProj;
        out->proj_id = next_proj_id_++;  // keys the evaluator's deref cache
        out->name = e->name;
        out->a = CompileExpr(e->a, scope);
        return out;
      case ExprKind::kIf:
        out->kind = CExprKind::kIf;
        out->a = CompileExpr(e->a, scope);
        out->b = CompileExpr(e->b, scope);
        out->c = CompileExpr(e->c, scope);
        return out;
      case ExprKind::kBinOp:
        out->kind = CExprKind::kBinOp;
        out->bin_op = e->bin_op;
        out->a = CompileExpr(e->a, scope);
        out->b = CompileExpr(e->b, scope);
        return out;
      case ExprKind::kUnOp:
        out->kind = CExprKind::kUnOp;
        out->un_op = e->un_op;
        out->a = CompileExpr(e->a, scope);
        return out;
      case ExprKind::kApply:
        if (e->a->kind == ExprKind::kLambda) {
          // (λv. body)(arg): evaluate arg into a scratch slot, then the
          // body with v bound to that slot.
          out->kind = CExprKind::kLet;
          out->slot = next_scratch_++;
          out->a = CompileExpr(e->b, scope);
          Scope inner = scope;
          inner.Bind(e->a->name, out->slot);
          out->b = CompileExpr(e->a->a, inner);
          return out;
        }
        throw InternalError("application of a non-lambda in a physical plan");
      case ExprKind::kMerge:
        out->kind = CExprKind::kMerge;
        out->monoid = e->monoid;
        out->a = CompileExpr(e->a, scope);
        out->b = CompileExpr(e->b, scope);
        return out;
      case ExprKind::kZero:
        out->kind = CExprKind::kLit;
        out->literal = MonoidZero(e->monoid);
        return out;
      case ExprKind::kComp:
      case ExprKind::kLambda:
        // Unnesting leaves no comprehension in a plan (Theorem 1), and a
        // bare lambda is never a value.
        throw InternalError(
            std::string(e->kind == ExprKind::kComp ? "comprehension"
                                                   : "bare lambda") +
            " in an unnested plan: " + PrintExpr(e));
    }
    throw InternalError("unhandled expr kind in slot compilation");
  }

  int n_slots() const { return next_scratch_; }
  const std::vector<std::pair<std::string, int>>& param_slots() const {
    return param_slots_;
  }

 private:
  int ParamSlot(const std::string& name) {
    for (const auto& [n, slot] : param_slots_) {
      if (n == name) return slot;
    }
    int slot = next_scratch_++;
    param_slots_.emplace_back(name, slot);
    return slot;
  }

  const Database& db_;
  int next_slot_ = 0;
  int next_scratch_;
  int next_id_ = 0;
  int next_proj_id_ = 0;
  std::vector<std::pair<std::string, int>> param_slots_;
};

void PrintSlotOp(const SlotOpPtr& op, int indent, std::ostringstream* out) {
  if (!op) return;
  *out << std::string(static_cast<size_t>(indent) * 2, ' ')
       << PhysKindName(op->kind);
  if (!op->extent.empty()) *out << " " << op->extent;
  if (op->var_slot >= 0) *out << " var@" << op->var_slot;
  if (op->kind == PhysKind::kHashNest || op->kind == PhysKind::kGroupJoin) {
    *out << " groups@[";
    for (size_t i = 0; i < op->group_slots.size(); ++i) {
      if (i) *out << ",";
      *out << op->group_slots[i].first;
    }
    *out << "]";
  }
  *out << " span[" << op->out_lo << "," << op->out_hi << ")";
  if (op->kind == PhysKind::kReduce || op->kind == PhysKind::kHashNest ||
      op->kind == PhysKind::kGroupJoin) {
    *out << " monoid=" << MonoidName(op->monoid);
  }
  if (op->kind == PhysKind::kGroupJoin) {
    *out << " " << GroupJoinStrategyName(op->strategy);
  }
  *out << "\n";
  PrintSlotOp(op->left, indent + 1, out);
  PrintSlotOp(op->right, indent + 1, out);
}

}  // namespace

SlotPlan CompileSlotPlan(const PhysPtr& plan, const Database& db) {
  LDB_INTERNAL_CHECK(plan && plan->kind == PhysKind::kReduce,
                     "slot compilation expects a Reduce root");
  Compiler c(db, CountOpSlots(plan));
  Scope scope;
  SlotPlan out;
  out.root = c.CompileOp(plan, &scope);
  out.n_slots = c.n_slots();
  out.param_slots = c.param_slots();
  return out;
}

std::string PrintSlotPlan(const SlotPlan& plan) {
  std::ostringstream out;
  out << "frame[" << plan.n_slots << "]\n";
  PrintSlotOp(plan.root, 0, &out);
  return out.str();
}

}  // namespace ldb
