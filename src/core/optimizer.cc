#include "src/core/optimizer.h"

#include <chrono>
#include <set>

#include "src/core/cost.h"
#include "src/core/materialize.h"
#include "src/core/normalize.h"
#include "src/core/pretty.h"
#include "src/core/simplify.h"
#include "src/core/typecheck.h"
#include "src/core/unnest.h"
#include "src/runtime/error.h"
#include "src/runtime/eval_algebra.h"
#include "src/runtime/exec_pipeline.h"
#include "src/verify/verify.h"

namespace ldb {

namespace {

// The duplicate-safety check: a nest merges stream tuples with equal
// group-by keys, assuming equal keys = the same logical iteration of the
// embedding query. An unnest over a bag/list-typed path can emit several
// stream tuples that are indistinguishable by their variables (e.g. the
// word "a" occurring twice in one document), and if such a variable reaches
// a nest's group keys, distinct logical iterations collapse into one group
// — double-counting contributions below and dropping rows above. Extent
// scans always bind distinct object refs and set-typed paths bind distinct
// elements per parent, so only bag/list unnests can introduce ambiguity.
//
// Returns the set of "duplicate-capable" variables flowing out of `op`, and
// throws UnsupportedError if any nest groups by one of them. (A bag/list
// unnest used as a nest's *own* accumulated variable is fine — bag
// multiplicity is exactly what e.g. sum should see.)
std::set<std::string> DupVars(const AlgPtr& op, const Schema& schema) {
  if (!op) return {};
  switch (op->kind) {
    case AlgKind::kUnit:
    case AlgKind::kScan:
      return {};
    case AlgKind::kSelect:
      return DupVars(op->left, schema);
    case AlgKind::kJoin:
    case AlgKind::kOuterJoin: {
      std::set<std::string> out = DupVars(op->left, schema);
      std::set<std::string> right = DupVars(op->right, schema);
      out.insert(right.begin(), right.end());
      return out;
    }
    case AlgKind::kUnnest:
    case AlgKind::kOuterUnnest: {
      std::set<std::string> out = DupVars(op->left, schema);
      TypeEnv env = PlanOutputEnv(op->left, schema);
      TypePtr t = TypeCheck(op->path, schema, env);
      if (t->kind() == Type::Kind::kBag || t->kind() == Type::Kind::kList) {
        out.insert(op->var);
      }
      return out;
    }
    case AlgKind::kNest: {
      std::set<std::string> below = DupVars(op->left, schema);
      for (const auto& [name, key] : op->group_by) {
        for (const std::string& v : FreeVars(key)) {
          if (below.count(v) > 0) {
            throw UnsupportedError(
                "unnesting would group by '" + v +
                "', which ranges over a bag/list path: duplicate iterations "
                "would merge (the paper's future work). Use set-valued "
                "collections or evaluate with the baseline.");
          }
        }
      }
      return {};  // only the (clean) keys and the reduction survive the nest
    }
    case AlgKind::kReduce:
      // A reduce folds every row, duplicates included — faithful to the
      // baseline's iteration, so nothing to check.
      return DupVars(op->left, schema);
  }
  return {};
}

// Wall time of `fn()` in ms, appended to the trace when one is being kept.
template <typename Fn>
auto TimeStage(CompileTrace* trace, const char* stage, Fn&& fn)
    -> decltype(fn()) {
  if (!trace) return fn();
  auto t0 = std::chrono::steady_clock::now();
  auto result = fn();
  auto t1 = std::chrono::steady_clock::now();
  double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  trace->stages.push_back({stage, ms});
  trace->total_ms += ms;
  return result;
}

}  // namespace

CompiledQuery Optimizer::Compile(const ExprPtr& calculus) const {
  return Compile(calculus, nullptr);
}

CompiledQuery Optimizer::Compile(const ExprPtr& calculus,
                                 const ExprPtr& normalized) const {
  CompiledQuery out;
  out.calculus = calculus;
  CompileTrace* trace = nullptr;
  if (options_.trace) {
    out.trace = std::make_shared<CompileTrace>();
    trace = out.trace.get();
  }
  // Verifier passes (docs/VERIFIER.md): each one re-checks the paper's
  // statically checkable guarantees on the IR a stage just produced, records
  // a summary in the trace, and aborts compilation on any finding.
  auto verify = [&](VerifyReport report) {
    RecordVerifyStage(trace, report);
    report.ThrowIfFailed();
  };
  if (options_.typecheck) {
    TimeStage(trace, "typecheck-calculus",
              [&] { return TypeCheck(calculus, schema_); });
  }
  if (options_.verify_plans) {
    verify(VerifyCalculus(calculus, schema_, CalculusStage::kInput));
  }
  if (normalized) {
    out.normalized = normalized;
  } else if (options_.normalize) {
    out.normalized = TimeStage(trace, "normalize", [&] {
      return trace ? NormalizeTraced(calculus, &trace->normalize_rules)
                   : Normalize(calculus);
    });
  } else {
    out.normalized = calculus;
  }
  if (options_.verify_plans && options_.normalize) {
    verify(VerifyCalculus(out.normalized, schema_, CalculusStage::kNormalized,
                          "calculus-normalized"));
  }
  // A top level that is not a comprehension (a record of aggregates, a
  // union, arithmetic) unnests as the generator-less first{ e | }: C2
  // reduces the unit stream and C9 splices e's subqueries out of the head.
  // The wrap comes after normalization, whose D2 would rewrite it back to e.
  const ExprPtr root =
      out.normalized->kind == ExprKind::kComp
          ? out.normalized
          : Expr::Comp(MonoidKind::kFirst, out.normalized, {});
  out.plan = TimeStage(trace, "unnest", [&] {
    return trace ? UnnestCompTraced(root, schema_, &trace->unnest_steps)
                 : UnnestComp(root, schema_);
  });
  LDB_INTERNAL_CHECK(IsFullyUnnested(out.plan),
                     "unnesting left a nested comprehension (Theorem 1)");
  if (options_.verify_plans) {
    verify(VerifyAlgebra(out.plan, schema_, "algebra-unnested"));
  }
  if (options_.check_duplicate_safety) {
    DupVars(out.plan, schema_);  // throws on unsafe group keys
  }
  out.simplified =
      options_.simplify
          ? TimeStage(trace, "simplify",
                      [&] {
                        return trace ? SimplifyTraced(out.plan, schema_,
                                                      &trace->simplify_rewrites)
                                     : Simplify(out.plan, schema_);
                      })
          : out.plan;
  if (options_.materialize_paths) {
    out.simplified = TimeStage(trace, "materialize-paths", [&] {
      return MaterializePaths(out.simplified, schema_);
    });
  }
  if (options_.reorder_joins) {
    out.simplified = TimeStage(trace, "reorder-joins", [&] {
      return ReorderJoins(out.simplified, options_.catalog);
    });
  }
  if (options_.verify_plans && out.simplified != out.plan) {
    verify(VerifyAlgebra(out.simplified, schema_, "algebra-simplified"));
  }
  if (options_.typecheck) {
    out.result_type = TimeStage(trace, "typecheck-plan", [&] {
      return TypeCheckPlan(out.simplified, schema_);
    });
  }
  return out;
}

LoweredPlan Optimizer::Lower(const CompiledQuery& q,
                             const Database& db) const {
  CompileTrace* trace = q.trace.get();
  LoweredPlan out;
  out.physical = TimeStage(trace, "physical", [&] {
    return PlanPhysical(q.simplified, db, options_.physical);
  });
  out.slots = TimeStage(trace, "slot-compile",
                        [&] { return CompileSlotPlan(out.physical, db); });
  // A miscompiled frame layout corrupts every execution of the plan (every
  // session, for a cached one), so it must pass the dataflow analysis
  // before it runs.
  if (options_.verify_plans) {
    VerifyReport report = VerifySlotPlan(out.slots);
    RecordVerifyStage(trace, report);
    report.ThrowIfFailed();
  }
  return out;
}

Value Optimizer::Execute(const CompiledQuery& q, const Database& db) const {
  if (options_.pipelined_execution) {
    return ExecuteSlotPlan(Lower(q, db).slots, db, options_.exec);
  }
  return ExecutePlan(q.simplified, db, options_.physical);
}

Value Optimizer::Run(const ExprPtr& calculus, const Database& db) const {
  return Execute(Compile(calculus), db);
}

}  // namespace ldb
