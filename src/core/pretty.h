// Pretty printers for calculus terms and algebra plans.
//
// Calculus terms print in the paper's comprehension syntax (ASCII), e.g.
//   set{ <E=e.name, C=c.name> | e <- Employees, c <- e.children }
// Algebra plans print as indented trees mirroring Figures 1/2/8:
//   Reduce[set/<E=e.name,C=c.name>]
//     Unnest[c := e.children]
//       Scan[e <- Employees]

#ifndef LAMBDADB_CORE_PRETTY_H_
#define LAMBDADB_CORE_PRETTY_H_

#include <string>

#include "src/core/algebra.h"
#include "src/core/expr.h"
#include "src/runtime/physical_plan.h"

namespace ldb {

class Catalog;
class QueryProfiler;
struct CompileTrace;

/// One-line rendering of a calculus term.
std::string PrintExpr(const ExprPtr& e);

/// Multi-line indented rendering of an algebra plan.
std::string PrintPlan(const AlgPtr& op);

/// One-line compact rendering of a plan's operator structure, e.g.
/// "Reduce(Nest(OuterJoin(Scan(Departments),Scan(Employees))))" — convenient
/// for asserting plan *shapes* in tests.
std::string PlanShape(const AlgPtr& op);

/// EXPLAIN ANALYZE rendering: the physical plan tree annotated per operator
/// with the measured counters from `profiler` (rows out, build/group sizes,
/// cumulative time) in one aligned column. Operators are matched to stats by
/// the pre-order id numbering shared with CompileSlotPlan. When `catalog` is
/// non-null, the Section 6 cost model's estimated cardinality prints next to
/// the measured rows (est= vs rows=). A header line reports the execution
/// mode, thread count, and wall time; under parallel execution per-worker
/// utilization lines follow the tree.
std::string ExplainAnalyze(const PhysPtr& plan, const QueryProfiler& profiler,
                           const Catalog* catalog = nullptr);

/// Human-readable rendering of a CompileTrace: per-stage wall times, the
/// normalize rule firing counts, the unnest (C1-C9) step log, and the
/// Section 5 rewrite count.
std::string PrintCompileTrace(const CompileTrace& trace);

}  // namespace ldb

#endif  // LAMBDADB_CORE_PRETTY_H_
