// lambdadb — a C++20 reproduction of Fegaras, "Query Unnesting in
// Object-Oriented Databases", SIGMOD 1998.
//
// This facade header pulls in the whole public API and provides one-call
// helpers for the common flows:
//
//   ldb::Database db = ldb::workload::MakeCompanyDatabase({});
//   ldb::Value r = ldb::RunOQL(db,
//       "select distinct struct(E: e.name, C: c.name) "
//       "from e in Employees, c in e.children");
//
// See README.md for the architecture overview and DESIGN.md for the mapping
// from the paper's figures/rules to modules.

#ifndef LAMBDADB_LAMBDADB_H_
#define LAMBDADB_LAMBDADB_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/algebra.h"
#include "src/core/catalog.h"
#include "src/core/cost.h"
#include "src/core/expr.h"
#include "src/core/materialize.h"
#include "src/core/monoid.h"
#include "src/core/normalize.h"
#include "src/core/optimizer.h"
#include "src/core/pretty.h"
#include "src/core/simplify.h"
#include "src/core/type.h"
#include "src/core/typecheck.h"
#include "src/core/unnest.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/obs/trace.h"
#include "src/oql/odl.h"
#include "src/oql/parser.h"
#include "src/oql/translate.h"
#include "src/runtime/database.h"
#include "src/runtime/error.h"
#include "src/runtime/eval_algebra.h"
#include "src/runtime/eval_calculus.h"
#include "src/runtime/exec_pipeline.h"
#include "src/runtime/expr_eval.h"
#include "src/runtime/physical.h"
#include "src/runtime/physical_plan.h"
#include "src/runtime/profile.h"
#include "src/runtime/schema.h"
#include "src/runtime/serialize.h"
#include "src/runtime/value.h"
#include "src/service/plan_cache.h"
#include "src/service/query_service.h"
#include "src/service/session.h"
#include "src/verify/verify.h"

namespace ldb {

/// Parses OQL and translates it into the monoid calculus. Top-level
/// `order by` is not expressible in the calculus (ordered collections are
/// the paper's future work) — RunOQL handles it at the facade.
inline ExprPtr ParseOQL(const std::string& oql) {
  return oql::Translate(oql::Parse(oql));
}

namespace internal {

/// Sorts the wrapped <key$, val$> rows of an ordered query's result by key$
/// (with per-key descending flags) and projects val$ into a list.
inline Value SortOrderedResult(const Value& wrapped,
                               const std::vector<bool>& descending) {
  Elems rows = wrapped.AsElems();
  std::stable_sort(rows.begin(), rows.end(), [&](const Value& a, const Value& b) {
    const Record& ka = a.Field("key$").AsTuple();
    const Record& kb = b.Field("key$").AsTuple();
    for (size_t i = 0; i < ka.size(); ++i) {
      int c = Value::Compare(ka.value(i), kb.value(i));
      if (i < descending.size() && descending[i]) c = -c;
      if (c != 0) return c < 0;
    }
    return false;
  });
  Elems out;
  out.reserve(rows.size());
  for (const Value& row : rows) out.push_back(row.Field("val$"));
  return Value::List(std::move(out));
}

}  // namespace internal

/// Parses, optimizes (normalize + unnest + simplify + physical), executes.
/// A top-level `order by` yields a LIST, sorted after execution (under
/// `distinct`, deduplication applies to (key, value) pairs).
inline Value RunOQL(const Database& db, const std::string& oql,
                    OptimizerOptions options = {}) {
  Optimizer opt(db.schema(), options);
  oql::OrderedQuery q = oql::TranslateWithOrdering(oql::Parse(oql));
  Value result = opt.Run(q.comp, db);
  if (!q.ordered) return result;
  return internal::SortOrderedResult(result, q.descending);
}

/// Parses and evaluates with the naive nested-loop baseline (no unnesting).
inline Value RunOQLBaseline(const Database& db, const std::string& oql) {
  oql::OrderedQuery q = oql::TranslateWithOrdering(oql::Parse(oql));
  Value result = EvalCalculus(q.comp, db);
  if (!q.ordered) return result;
  return internal::SortOrderedResult(result, q.descending);
}

/// Parses, compiles, and returns every intermediate stage (for printing the
/// paper's plan figures).
inline CompiledQuery CompileOQL(const Schema& schema, const std::string& oql,
                                OptimizerOptions options = {}) {
  Optimizer opt(schema, options);
  return opt.Compile(ParseOQL(oql));
}

}  // namespace ldb

#endif  // LAMBDADB_LAMBDADB_H_
