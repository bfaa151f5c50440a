#include "src/oql/translate.h"

#include "src/runtime/error.h"

namespace ldb::oql {

namespace {

ExprPtr Trans(const NodePtr& n);

MonoidKind AggMonoid(OAgg a) {
  switch (a) {
    case OAgg::kCount:  return MonoidKind::kSum;
    case OAgg::kSum:    return MonoidKind::kSum;
    case OAgg::kAvg:    return MonoidKind::kAvg;
    case OAgg::kMax:    return MonoidKind::kMax;
    case OAgg::kMin:    return MonoidKind::kMin;
    case OAgg::kExists: return MonoidKind::kSome;
  }
  throw InternalError("bad aggregate");
}

const char* AggName(OAgg a) {
  switch (a) {
    case OAgg::kCount:  return "count";
    case OAgg::kSum:    return "sum";
    case OAgg::kAvg:    return "avg";
    case OAgg::kMax:    return "max";
    case OAgg::kMin:    return "min";
    case OAgg::kExists: return "exists";
  }
  return "agg";
}

// Derives a result-field name for an unnamed projection item.
std::string DeriveName(const ProjItem& item, size_t index) {
  if (!item.as.empty()) return item.as;
  const NodePtr& e = item.expr;
  if (e->kind == NodeKind::kIdent) return e->name;
  if (e->kind == NodeKind::kProj) return e->name;  // last attribute
  if (e->kind == NodeKind::kAgg) return AggName(e->agg);
  std::string name = "c";
  name += std::to_string(index + 1);
  return name;
}

struct SelectParts {
  std::vector<Qualifier> quals;  // generators + where filter
  MonoidKind monoid;             // set if distinct, bag otherwise
};

SelectParts TransSelectBody(const Node& sel) {
  SelectParts parts;
  parts.monoid = sel.distinct ? MonoidKind::kSet : MonoidKind::kBag;
  for (const FromItem& f : sel.froms) {
    parts.quals.push_back(Qualifier::Generator(f.var, Trans(f.domain)));
  }
  if (sel.where) parts.quals.push_back(Qualifier::Filter(Trans(sel.where)));
  return parts;
}

ExprPtr HeadOfProjection(const std::vector<ProjItem>& projection) {
  if (projection.size() == 1 && projection[0].as.empty()) {
    return Trans(projection[0].expr);
  }
  std::vector<std::pair<std::string, ExprPtr>> fields;
  for (size_t i = 0; i < projection.size(); ++i) {
    fields.emplace_back(DeriveName(projection[i], i), Trans(projection[i].expr));
  }
  return Expr::Record(std::move(fields));
}

// Group-by translation (paper, Section 5): restricted to one from-binding;
// every projection item must be a group key or an aggregate over the binding.
ExprPtr TransGroupBy(const Node& sel) {
  if (sel.froms.size() != 1) {
    throw UnsupportedError("group by requires a single from-binding");
  }
  const std::string& v = sel.froms[0].var;
  ExprPtr domain = Trans(sel.froms[0].domain);
  ExprPtr where = sel.where ? Trans(sel.where) : Expr::True();

  std::vector<ExprPtr> keys;
  keys.reserve(sel.group_by.size());
  for (const NodePtr& g : sel.group_by) keys.push_back(Trans(g));

  auto is_key = [&](const ExprPtr& e) {
    for (const ExprPtr& k : keys) {
      if (ExprEqual(e, k)) return true;
    }
    return false;
  };

  std::vector<std::pair<std::string, ExprPtr>> fields;
  for (size_t i = 0; i < sel.projection.size(); ++i) {
    const ProjItem& item = sel.projection[i];
    if (item.expr->kind != NodeKind::kAgg) {
      ExprPtr e = Trans(item.expr);
      if (is_key(e)) {
        fields.emplace_back(DeriveName(item, i), e);
        continue;
      }
      throw UnsupportedError(
          "projection in a group-by query must be a group key or an aggregate");
    }
    // Build the correlated aggregate over a fresh copy of the binding.
    std::string u = Gensym::Fresh(v);
    ExprPtr uvar = Expr::Var(u);
    std::vector<Qualifier> quals;
    quals.push_back(Qualifier::Generator(u, domain));
    if (!where->IsTrueLiteral()) {
      quals.push_back(Qualifier::Filter(Subst(where, v, uvar)));
    }
    for (const ExprPtr& k : keys) {
      quals.push_back(Qualifier::Filter(Expr::Eq(Subst(k, v, uvar), k)));
    }
    ExprPtr head;
    if (item.expr->agg == OAgg::kCount) {
      head = Expr::Int(1);
    } else {
      // Aggregate argument must be an expression over the binding.
      if (item.expr->a->kind == NodeKind::kSelect) {
        throw UnsupportedError("subquery aggregate inside group-by");
      }
      head = Subst(Trans(item.expr->a), v, uvar);
    }
    fields.emplace_back(DeriveName(item, i),
                        Expr::Comp(AggMonoid(item.expr->agg), head,
                                   std::move(quals)));
  }

  std::vector<Qualifier> outer;
  outer.push_back(Qualifier::Generator(v, domain));
  if (!where->IsTrueLiteral()) outer.push_back(Qualifier::Filter(where));
  // One output row per group: the head is keyed by the group attributes, and
  // set collapsing merges the per-member duplicates (Section 5 example).
  return Expr::Comp(MonoidKind::kSet, Expr::Record(std::move(fields)),
                    std::move(outer));
}

ExprPtr TransAgg(const Node& n) {
  const MonoidKind m = AggMonoid(n.agg);
  if (n.a->kind == NodeKind::kSelect) {
    const Node& sel = *n.a;
    if (!sel.group_by.empty()) {
      throw UnsupportedError("aggregate over a group-by subquery");
    }
    if (n.agg == OAgg::kExists) {
      SelectParts parts = TransSelectBody(sel);
      return Expr::Comp(MonoidKind::kSome, Expr::True(), std::move(parts.quals));
    }
    if (sel.distinct) {
      // agg(select distinct ...): when the projected value is a bare range
      // variable, iterating the (set-valued) domains already yields each
      // binding once, so `distinct` is a no-op and we emit the paper's
      // direct form (Query D: count(select distinct c from c in e.children)
      // = sum{ 1 | c <- e.children }). Domains here are class extents or
      // set-typed paths; a bag-typed domain would need the guarded form
      // below. Otherwise the deduplicating inner set comprehension is kept
      // (a genuine count-distinct), which the unnester cannot unnest — the
      // baseline evaluator still handles it.
      bool head_is_binding = false;
      if (sel.projection.size() == 1 &&
          sel.projection[0].expr->kind == NodeKind::kIdent) {
        for (const FromItem& f : sel.froms) {
          if (f.var == sel.projection[0].expr->name) head_is_binding = true;
        }
      }
      if (!head_is_binding) {
        ExprPtr inner = Trans(n.a);
        std::string x = Gensym::Fresh("x");
        ExprPtr head = n.agg == OAgg::kCount ? Expr::Int(1) : Expr::Var(x);
        return Expr::Comp(m, head, {Qualifier::Generator(x, inner)});
      }
      // fall through to the direct translation
    }
    SelectParts parts = TransSelectBody(sel);
    ExprPtr head = n.agg == OAgg::kCount ? Expr::Int(1)
                                         : HeadOfProjection(sel.projection);
    return Expr::Comp(m, head, std::move(parts.quals));
  }
  // Aggregate over a collection-valued expression.
  ExprPtr coll = Trans(n.a);
  std::string x = Gensym::Fresh("x");
  ExprPtr head;
  switch (n.agg) {
    case OAgg::kCount:  head = Expr::Int(1); break;
    case OAgg::kExists: head = Expr::True(); break;
    default:            head = Expr::Var(x); break;
  }
  return Expr::Comp(n.agg == OAgg::kExists ? MonoidKind::kSome : m, head,
                    {Qualifier::Generator(x, coll)});
}

ExprPtr Trans(const NodePtr& n) {
  if (!n) throw InternalError("null OQL node");
  switch (n->kind) {
    case NodeKind::kIdent:
      return Expr::Var(n->name);
    case NodeKind::kParam:
      return Expr::Param(n->name);
    case NodeKind::kLiteral:
      return Expr::Lit(n->literal);
    case NodeKind::kProj:
      return Expr::Proj(Trans(n->a), n->name);
    case NodeKind::kStruct: {
      std::vector<std::pair<std::string, ExprPtr>> fields;
      for (const auto& [name, f] : n->fields) fields.emplace_back(name, Trans(f));
      return Expr::Record(std::move(fields));
    }
    case NodeKind::kBin: {
      static const BinOpKind kMap[] = {
          BinOpKind::kEq,  BinOpKind::kNe,  BinOpKind::kLt,  BinOpKind::kLe,
          BinOpKind::kGt,  BinOpKind::kGe,  BinOpKind::kAnd, BinOpKind::kOr,
          BinOpKind::kAdd, BinOpKind::kSub, BinOpKind::kMul, BinOpKind::kDiv,
          BinOpKind::kMod};
      return Expr::Bin(kMap[static_cast<int>(n->bin)], Trans(n->a), Trans(n->b));
    }
    case NodeKind::kUn:
      return n->un == OUn::kNot ? Expr::Not(Trans(n->a))
                                : Expr::Un(UnOpKind::kNeg, Trans(n->a));
    case NodeKind::kIn: {
      // x in D  ->  some{ w = x | w <- D }
      std::string w = Gensym::Fresh("w");
      return Expr::Comp(MonoidKind::kSome,
                        Expr::Eq(Expr::Var(w), Trans(n->a)),
                        {Qualifier::Generator(w, Trans(n->b))});
    }
    case NodeKind::kExists:
      return Expr::Comp(MonoidKind::kSome, Trans(n->b),
                        {Qualifier::Generator(n->var, Trans(n->a))});
    case NodeKind::kForAll:
      return Expr::Comp(MonoidKind::kAll, Trans(n->b),
                        {Qualifier::Generator(n->var, Trans(n->a))});
    case NodeKind::kAgg:
      return TransAgg(*n);
    case NodeKind::kSelect: {
      if (!n->order_by.empty()) {
        throw UnsupportedError(
            "order by produces a list (the paper's future work); use "
            "TranslateWithOrdering / RunOQL, which sort after execution");
      }
      if (!n->group_by.empty()) return TransGroupBy(*n);
      SelectParts parts = TransSelectBody(*n);
      return Expr::Comp(parts.monoid, HeadOfProjection(n->projection),
                        std::move(parts.quals));
    }
  }
  throw InternalError("unhandled OQL node");
}

}  // namespace

ExprPtr Translate(const NodePtr& query) { return Trans(query); }

OrderedQuery TranslateWithOrdering(const NodePtr& query) {
  OrderedQuery out;
  if (!query || query->kind != NodeKind::kSelect || query->order_by.empty()) {
    out.comp = Trans(query);
    return out;
  }
  if (!query->group_by.empty()) {
    throw UnsupportedError("order by combined with group by");
  }
  out.ordered = true;
  // Wrap the head: <key$ = <o1=k1, ...>, val$ = head>. The keys see the
  // same range variables as the head.
  std::vector<std::pair<std::string, ExprPtr>> key_fields;
  for (size_t i = 0; i < query->order_by.size(); ++i) {
    std::string name = "o";
    name += std::to_string(i);
    key_fields.emplace_back(std::move(name), Trans(query->order_by[i].first));
    out.descending.push_back(query->order_by[i].second);
  }
  auto unordered = Node::New(NodeKind::kSelect);
  *unordered = *query;
  unordered->order_by.clear();
  ExprPtr base = Trans(unordered);  // the select without ordering
  ExprPtr wrapped_head = Expr::Record(
      {{"key$", Expr::Record(std::move(key_fields))}, {"val$", base->a}});
  out.comp = Expr::Comp(base->monoid, wrapped_head, base->quals);
  return out;
}

}  // namespace ldb::oql
