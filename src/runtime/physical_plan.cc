#include "src/runtime/physical_plan.h"

#include <functional>
#include <optional>
#include <set>
#include <sstream>

#include "src/core/cost.h"
#include "src/core/pretty.h"
#include "src/core/typecheck.h"
#include "src/runtime/error.h"

namespace ldb {

namespace {

std::shared_ptr<PhysOp> New(PhysKind k) {
  auto op = std::make_shared<PhysOp>();
  op->kind = k;
  op->pred = Expr::True();
  return op;
}

// The types of the variables an expression reads, worked out on first use.
using LazyTypeEnv = std::function<const TypeEnv&()>;

// True if evaluating `e` can throw on a well-typed row: division and modulo
// by zero, and int arithmetic leaving int64 (+, -, * and unary minus on
// anything not known to be real), are the calculus's partial operators.
bool CanFail(const ExprPtr& e, const Schema& schema, const LazyTypeEnv& env) {
  if (!e) return false;
  if (e->kind == ExprKind::kBinOp &&
      (e->bin_op == BinOpKind::kDiv || e->bin_op == BinOpKind::kMod)) {
    return true;
  }
  const bool arith = e->kind == ExprKind::kBinOp &&
                     (e->bin_op == BinOpKind::kAdd ||
                      e->bin_op == BinOpKind::kSub ||
                      e->bin_op == BinOpKind::kMul);
  const bool neg = e->kind == ExprKind::kUnOp && e->un_op == UnOpKind::kNeg;
  if (arith || neg) {
    try {
      if (TypeCheck(e, schema, env())->kind() != Type::Kind::kReal) return true;
    } catch (const TypeError&) {
      return true;
    }
  }
  for (const auto& [name, f] : e->fields) {
    if (CanFail(f, schema, env)) return true;
  }
  return CanFail(e->a, schema, env) || CanFail(e->b, schema, env) ||
         CanFail(e->c, schema, env);
}

// True for the monoids whose result does not depend on the order rows are
// added in (sums stay exact through ExactSum), which the sorted strategy
// needs: it adds rows in key order, not build order.
bool OrderIndependent(MonoidKind m) {
  switch (m) {
    case MonoidKind::kSum:
    case MonoidKind::kMax:
    case MonoidKind::kMin:
    case MonoidKind::kSome:
    case MonoidKind::kAll:
    case MonoidKind::kAvg:
      return true;
    default:
      return false;
  }
}

// Matches `a op b` with op in <, <=, >, >=, a over L and b over R, mirroring
// a comparison written the other way round.
bool SplitComparison(const ExprPtr& c, const std::vector<std::string>& lvars,
                     const std::vector<std::string>& rvars, ExprPtr* a,
                     ExprPtr* b, BinOpKind* op) {
  if (c->kind != ExprKind::kBinOp) return false;
  BinOpKind mirrored;
  switch (c->bin_op) {
    case BinOpKind::kLt: mirrored = BinOpKind::kGt; break;
    case BinOpKind::kLe: mirrored = BinOpKind::kGe; break;
    case BinOpKind::kGt: mirrored = BinOpKind::kLt; break;
    case BinOpKind::kGe: mirrored = BinOpKind::kLe; break;
    default: return false;
  }
  if (ReadsOnly(c->a, lvars) && ReadsOnly(c->b, rvars)) {
    *a = c->a;
    *b = c->b;
    *op = c->bin_op;
    return true;
  }
  if (ReadsOnly(c->b, lvars) && ReadsOnly(c->a, rvars)) {
    *a = c->b;
    *b = c->a;
    *op = mirrored;
    return true;
  }
  return false;
}

class Planner {
 public:
  Planner(const Database& db, const PhysicalOptions& options)
      : db_(db), options_(options), catalog_(Catalog::FromDatabase(db)) {}

  PhysPtr Root(const AlgPtr& plan) {
    LDB_INTERNAL_CHECK(plan && plan->kind == AlgKind::kReduce,
                       "physical planning expects a Reduce root");
    auto out = New(PhysKind::kReduce);
    out->left = Plan(plan->left);
    out->pred = plan->pred;
    out->head = plan->head;
    out->monoid = plan->monoid;
    return out;
  }

 private:
  const Database& db_;
  PhysicalOptions options_;
  Catalog catalog_;

  PhysPtr Plan(const AlgPtr& op) {
    LDB_INTERNAL_CHECK(op != nullptr, "null logical operator");
    switch (op->kind) {
      case AlgKind::kUnit:
        return New(PhysKind::kUnitRow);
      case AlgKind::kScan:
        return PlanScan(*op);
      case AlgKind::kSelect: {
        auto out = New(PhysKind::kFilter);
        out->left = Plan(op->left);
        out->pred = op->pred;
        return out;
      }
      case AlgKind::kJoin:
      case AlgKind::kOuterJoin:
        return PlanJoin(*op);
      case AlgKind::kUnnest:
      case AlgKind::kOuterUnnest: {
        auto out = New(op->kind == AlgKind::kUnnest ? PhysKind::kUnnest
                                                    : PhysKind::kOuterUnnest);
        out->left = Plan(op->left);
        out->path = op->path;
        out->var = op->var;
        out->pred = op->pred;
        return out;
      }
      case AlgKind::kNest: {
        if (PhysPtr fused = PlanGroupJoin(*op)) return fused;
        auto out = New(PhysKind::kHashNest);
        out->left = Plan(op->left);
        out->monoid = op->monoid;
        out->head = op->head;
        out->var = op->var;
        out->group_by = op->group_by;
        out->null_vars = op->null_vars;
        out->pred = op->pred;
        return out;
      }
      case AlgKind::kReduce:
        throw InternalError("reduce below the plan root");
    }
    throw InternalError("unhandled logical operator");
  }

  PhysPtr PlanScan(const AlgOp& scan) {
    IndexMatch m;
    if (options_.use_indexes && MatchIndexScan(scan, db_, &m)) {
      auto out = New(PhysKind::kIndexScan);
      out->extent = scan.extent;
      out->var = scan.var;
      out->index_attr = m.attr;
      out->index_key = m.key;
      out->pred = m.residual;
      return out;
    }
    auto out = New(PhysKind::kTableScan);
    out->extent = scan.extent;
    out->var = scan.var;
    out->pred = scan.pred;
    return out;
  }

  PhysPtr PlanJoin(const AlgOp& join) {
    const bool outer = join.kind == AlgKind::kOuterJoin;
    PhysPtr left = Plan(join.left);
    PhysPtr right = Plan(join.right);
    std::vector<std::string> lvars = OutputVars(join.left);
    std::vector<std::string> rvars = OutputVars(join.right);
    JoinKeys keys = ExtractEquiKeys(join.pred, lvars, rvars);

    if (options_.use_hash_joins && keys.hashable()) {
      auto out = New(outer ? PhysKind::kHashOuterJoin : PhysKind::kHashJoin);
      out->left = left;
      out->right = right;
      out->pred = keys.residual;
      out->pad_vars = rvars;
      // Outer joins must probe with left rows; inner joins build on the side
      // the statistics say is smaller.
      bool build_left = false;
      if (!outer) {
        double lcard = RoughCard(join.left);
        double rcard = RoughCard(join.right);
        build_left = lcard < rcard;
      }
      out->build_is_left = build_left;
      if (build_left) {
        out->build_keys = keys.left_keys;
        out->probe_keys = keys.right_keys;
      } else {
        out->build_keys = keys.right_keys;
        out->probe_keys = keys.left_keys;
      }
      return out;
    }

    auto out = New(outer ? PhysKind::kNLOuterJoin : PhysKind::kNLJoin);
    out->left = left;
    out->right = right;
    out->pred = join.pred;
    out->pad_vars = rvars;
    return out;
  }

  // Nest(OuterJoin(L, R)) whose group keys are exactly L's variables is one
  // GroupJoin: DupVars keeps L's rows pairwise distinct on those keys, so
  // every left row is its own group and its aggregate is a fold over its
  // own matches. Returns null when the nest does not have that shape.
  PhysPtr PlanGroupJoin(const AlgOp& nest) {
    const AlgPtr& join = nest.left;
    if (join->kind != AlgKind::kOuterJoin) return nullptr;
    std::vector<std::string> lvars = OutputVars(join->left);
    std::vector<std::string> rvars = OutputVars(join->right);
    std::set<std::string> lset(lvars.begin(), lvars.end());
    std::set<std::string> rset(rvars.begin(), rvars.end());
    std::set<std::string> keyed;
    for (const auto& [name, key] : nest.group_by) {
      if (key->kind != ExprKind::kVar) return nullptr;
      keyed.insert(key->name);
    }
    // Shadowed names would make "reads only L" ambiguous: keep the nest.
    if (keyed != lset || lset.size() != lvars.size()) return nullptr;
    for (const std::string& v : rvars) {
      if (lset.count(v) > 0) return nullptr;
    }
    for (const std::string& v : nest.null_vars) {
      if (rset.count(v) == 0) return nullptr;
    }

    auto out = New(PhysKind::kGroupJoin);
    out->left = Plan(join->left);
    out->right = Plan(join->right);
    out->monoid = nest.monoid;
    out->head = nest.head;
    out->var = nest.var;
    out->group_by = nest.group_by;
    out->null_vars = nest.null_vars;

    // A non-padded joined row contributes iff it passes both predicates,
    // so the nest's predicate joins the outer join's for key extraction.
    std::vector<ExprPtr> conjuncts = SplitConjuncts(join->pred);
    for (const ExprPtr& c : SplitConjuncts(nest.pred)) conjuncts.push_back(c);
    JoinKeys keys;
    if (options_.use_hash_joins) {
      keys = ExtractEquiKeys(MakeConjunction(conjuncts), lvars, rvars);
    } else {
      keys.residual = MakeConjunction(conjuncts);
    }
    // Every other conjunct reads only R (a per-right-row filter), only L (a
    // per-left-row guard) or both. A guard that can fail stays per pair, so
    // it is evaluated exactly when the nested plan would evaluate it.
    std::optional<TypeEnv> env;
    const LazyTypeEnv typed = [&]() -> const TypeEnv& {
      if (!env) env = PlanOutputEnv(join, db_.schema());
      return *env;
    };
    auto can_fail = [&](const ExprPtr& e) {
      return CanFail(e, db_.schema(), typed);
    };
    std::vector<ExprPtr> right_only, guards, both;
    for (const ExprPtr& c : SplitConjuncts(keys.residual)) {
      if (ReadsOnly(c, rvars)) {
        right_only.push_back(c);
      } else if (ReadsOnly(c, lvars) && !can_fail(c)) {
        guards.push_back(c);
      } else {
        both.push_back(c);
      }
    }
    out->probe_keys = keys.left_keys;
    out->build_keys = keys.right_keys;
    out->guard = MakeConjunction(guards);

    // The summaries evaluate the head and filters for right rows no left
    // row may ever pair with, so they take only expressions that cannot fail.
    bool summary_ok = options_.use_hash_joins &&
                      ReadsOnly(nest.head, rvars) && !can_fail(nest.head);
    for (const ExprPtr& c : right_only) summary_ok = summary_ok && !can_fail(c);
    ExprPtr a, b;
    BinOpKind op{};
    if (summary_ok && both.empty()) {
      out->strategy = GroupJoinStrategy::kAggregate;
      out->pred = MakeConjunction(right_only);
    } else if (summary_ok && keys.left_keys.empty() && both.size() == 1 &&
               OrderIndependent(nest.monoid) && !can_fail(both[0]) &&
               SplitComparison(both[0], lvars, rvars, &a, &b, &op)) {
      out->strategy = GroupJoinStrategy::kSorted;
      out->pred = MakeConjunction(right_only);
      out->probe_keys = {a};
      out->build_keys = {b};
      out->sort_op = op;
    } else {
      out->strategy = GroupJoinStrategy::kLoop;
      right_only.insert(right_only.end(), both.begin(), both.end());
      out->pred = MakeConjunction(right_only);
    }
    return out;
  }

  // A statistics peek for build-side choice: actual extent sizes where
  // visible, otherwise a neutral constant.
  double RoughCard(const AlgPtr& op) {
    return EstimateCardinality(op, catalog_);
  }
};

void Print(const PhysPtr& op, int indent, std::ostringstream& os) {
  if (!op) return;
  os << std::string(static_cast<size_t>(indent) * 2, ' ')
     << DescribePhysOp(*op) << '\n';
  Print(op->left, indent + 1, os);
  Print(op->right, indent + 1, os);
}

}  // namespace

const char* PhysKindName(PhysKind kind) {
  switch (kind) {
    case PhysKind::kUnitRow:       return "UnitRow";
    case PhysKind::kTableScan:     return "TableScan";
    case PhysKind::kIndexScan:     return "IndexScan";
    case PhysKind::kFilter:        return "Filter";
    case PhysKind::kNLJoin:        return "NLJoin";
    case PhysKind::kHashJoin:      return "HashJoin";
    case PhysKind::kNLOuterJoin:   return "NLOuterJoin";
    case PhysKind::kHashOuterJoin: return "HashOuterJoin";
    case PhysKind::kUnnest:        return "Unnest";
    case PhysKind::kOuterUnnest:   return "OuterUnnest";
    case PhysKind::kHashNest:      return "HashNest";
    case PhysKind::kGroupJoin:     return "GroupJoin";
    case PhysKind::kReduce:        return "Reduce";
  }
  return "?";
}

const char* GroupJoinStrategyName(GroupJoinStrategy strategy) {
  switch (strategy) {
    case GroupJoinStrategy::kAggregate: return "aggregate";
    case GroupJoinStrategy::kSorted:    return "sorted";
    case GroupJoinStrategy::kLoop:      return "loop";
  }
  return "?";
}

std::string DescribePhysOp(const PhysOp& op) {
  std::ostringstream os;
  auto pred_suffix = [&]() -> std::string {
    if (op.pred && !op.pred->IsTrueLiteral()) {
      return " if " + PrintExpr(op.pred);
    }
    return "";
  };
  switch (op.kind) {
    case PhysKind::kUnitRow:
      os << "UnitRow";
      break;
    case PhysKind::kTableScan:
      os << "TableScan[" << op.var << " <- " << op.extent << pred_suffix()
         << "]";
      break;
    case PhysKind::kIndexScan:
      os << "IndexScan[" << op.var << " <- " << op.extent << '.'
         << op.index_attr << " = " << PrintExpr(op.index_key) << pred_suffix()
         << "]";
      break;
    case PhysKind::kFilter:
      os << "Filter[" << PrintExpr(op.pred) << "]";
      break;
    case PhysKind::kNLJoin:
      os << "NLJoin[" << PrintExpr(op.pred) << "]";
      break;
    case PhysKind::kHashJoin:
    case PhysKind::kHashOuterJoin: {
      os << (op.kind == PhysKind::kHashJoin ? "HashJoin[" : "HashOuterJoin[");
      os << "build=" << (op.build_is_left ? "left" : "right") << " keys(";
      for (size_t i = 0; i < op.probe_keys.size(); ++i) {
        if (i) os << ", ";
        os << PrintExpr(op.probe_keys[i]) << '=' << PrintExpr(op.build_keys[i]);
      }
      os << ')' << pred_suffix() << "]";
      break;
    }
    case PhysKind::kNLOuterJoin:
      os << "NLOuterJoin[" << PrintExpr(op.pred) << "]";
      break;
    case PhysKind::kUnnest:
    case PhysKind::kOuterUnnest:
      os << (op.kind == PhysKind::kUnnest ? "Unnest[" : "OuterUnnest[")
         << op.var << " := " << PrintExpr(op.path) << pred_suffix() << "]";
      break;
    case PhysKind::kHashNest:
      os << "HashNest[" << MonoidName(op.monoid) << '/' << PrintExpr(op.head)
         << " -> " << op.var << pred_suffix() << "]";
      break;
    case PhysKind::kGroupJoin: {
      os << "GroupJoin[" << MonoidName(op.monoid) << '/' << PrintExpr(op.head)
         << " -> " << op.var << ' ' << GroupJoinStrategyName(op.strategy);
      if (op.strategy == GroupJoinStrategy::kSorted) {
        os << PrintExpr(
            Expr::Bin(op.sort_op, op.probe_keys[0], op.build_keys[0]));
      } else if (!op.probe_keys.empty()) {
        os << '(';
        for (size_t i = 0; i < op.probe_keys.size(); ++i) {
          if (i) os << ", ";
          os << PrintExpr(op.probe_keys[i]) << '='
             << PrintExpr(op.build_keys[i]);
        }
        os << ')';
      }
      if (op.guard && !op.guard->IsTrueLiteral()) os << " guard " << PrintExpr(op.guard);
      os << pred_suffix() << "]";
      break;
    }
    case PhysKind::kReduce:
      os << "Reduce[" << MonoidName(op.monoid) << '/' << PrintExpr(op.head)
         << pred_suffix() << "]";
      break;
  }
  return os.str();
}

PhysPtr PlanPhysical(const AlgPtr& plan, const Database& db,
                     const PhysicalOptions& options) {
  Planner planner(db, options);
  return planner.Root(plan);
}

std::string PrintPhysicalPlan(const PhysPtr& plan) {
  std::ostringstream os;
  Print(plan, 0, os);
  return os.str();
}

}  // namespace ldb
