#include "src/runtime/frame.h"

#include "src/runtime/error.h"
#include "src/runtime/expr_eval.h"

namespace ldb {

namespace {
const Value kNullValue;  // stable NULL to point at (Value() is NULL)
}  // namespace

const Value* FrameEvaluator::EvalProjPtr(const CExpr& e, const Value& base,
                                         Value* scratch) {
  if (base.is_null()) return &kNullValue;  // NULL navigation yields NULL
  if (e.proj_id < 0) {
    Value v = db_.Navigate(base, e.name);
    *scratch = std::move(v);
    return scratch;
  }
  if (proj_cache_.size() <= static_cast<size_t>(e.proj_id)) {
    proj_cache_.resize(static_cast<size_t>(e.proj_id) + 1);
  }
  ProjCache& pc = proj_cache_[static_cast<size_t>(e.proj_id)];
  const Value* obj = &base;
  if (base.kind() == Value::Kind::kRef) {
    const Ref r = base.AsRef();
    if (pc.class_vec == nullptr || pc.class_id != r.class_id) {
      pc.class_vec = &db_.ObjectsOf(r.class_id);
      pc.class_id = r.class_id;
    }
    if (r.oid < 0 || r.oid >= static_cast<int64_t>(pc.class_vec->size())) {
      throw EvalError("dangling reference " + r.class_name() + "#" +
                      std::to_string(r.oid));
    }
    obj = &(*pc.class_vec)[static_cast<size_t>(r.oid)];
  }
  const Record& rec = obj->AsTuple();
  if (rec.shape().get() != pc.shape.get()) {
    const int i = rec.shape()->Find(e.name);
    if (i < 0) {
      throw EvalError("tuple has no attribute '" + e.name + "': " +
                      obj->ToString());
    }
    pc.shape = rec.shape();
    pc.field_idx = static_cast<size_t>(i);
  }
  return &rec.value(pc.field_idx);
}

const Value* FrameEvaluator::EvalPtr(const CExpr& e, Frame& frame,
                                     Value* scratch) {
  switch (e.kind) {
    case CExprKind::kSlot:
      return &frame[e.slot];
    case CExprKind::kLit:
      return &e.literal;
    case CExprKind::kProj: {
      // `base` may already live in *scratch; the projected field pointer
      // then points into the tuple payload *scratch keeps alive, which is
      // exactly the contract EvalPtr documents.
      const Value* base = EvalPtr(*e.a, frame, scratch);
      return EvalProjPtr(e, *base, scratch);
    }
    case CExprKind::kIf:
      return EvalPred(*e.a, frame) ? EvalPtr(*e.b, frame, scratch)
                                   : EvalPtr(*e.c, frame, scratch);
    default:
      *scratch = Eval(e, frame);
      return scratch;
  }
}

bool FrameEvaluator::EvalPred(const CExpr& e, Frame& frame) {
  Value scratch;
  const Value* v = EvalPtr(e, frame, &scratch);
  if (v->is_null()) return false;
  return v->AsBool();
}

Value FrameEvaluator::Eval(const CExpr& e, Frame& frame) {
  switch (e.kind) {
    case CExprKind::kSlot:
      return frame[e.slot];
    case CExprKind::kLit:
      return e.literal;
    case CExprKind::kRecord: {
      Elems values;
      values.reserve(e.fields.size());
      for (const CExprPtr& f : e.fields) values.push_back(Eval(*f, frame));
      return Value::Tuple(e.shape, std::move(values));
    }
    case CExprKind::kProj: {
      Value scratch;
      return *EvalPtr(e, frame, &scratch);  // copy out before scratch dies
    }
    case CExprKind::kIf:
      return EvalPred(*e.a, frame) ? Eval(*e.b, frame) : Eval(*e.c, frame);
    case CExprKind::kBinOp: {
      // Short-circuit connectives.
      if (e.bin_op == BinOpKind::kAnd) {
        if (!EvalPred(*e.a, frame)) return Value::Bool(false);
        return Value::Bool(EvalPred(*e.b, frame));
      }
      if (e.bin_op == BinOpKind::kOr) {
        if (EvalPred(*e.a, frame)) return Value::Bool(true);
        return Value::Bool(EvalPred(*e.b, frame));
      }
      // Operands via the pointer path: comparisons and arithmetic on
      // projections/slots are the hottest expressions in any plan, and
      // neither needs an owned operand Value.
      Value ls, rs;
      const Value* l = EvalPtr(*e.a, frame, &ls);
      const Value* r = EvalPtr(*e.b, frame, &rs);
      switch (e.bin_op) {
        case BinOpKind::kEq:
        case BinOpKind::kNe:
        case BinOpKind::kLt:
        case BinOpKind::kLe:
        case BinOpKind::kGt:
        case BinOpKind::kGe:
          return ApplyCompareOp(e.bin_op, *l, *r);
        default:
          return ApplyArithOp(e.bin_op, *l, *r);
      }
    }
    case CExprKind::kUnOp: {
      Value scratch;
      return ApplyUnaryOp(e.un_op, *EvalPtr(*e.a, frame, &scratch));
    }
    case CExprKind::kLet:
      frame[e.slot] = Eval(*e.a, frame);
      return Eval(*e.b, frame);
    case CExprKind::kMerge: {
      Value l = Eval(*e.a, frame);
      Value r = Eval(*e.b, frame);
      return MonoidMerge(e.monoid, l, r);
    }
  }
  throw InternalError("unhandled compiled expr kind");
}

}  // namespace ldb
