// The end-to-end optimizer pipeline (paper, Sections 1.2 and 6):
//
//   calculus --normalize--> canonical comprehension --unnest (C1-C9)-->
//   algebra plan --simplify (Section 5)--> plan --physical selection-->
//   physical plan --slot compilation--> executable slot plan
//
// Compile runs normalization through simplification and Lower the two
// physical stages. Execute runs both and then the plan; the service runs
// both once per plan-cache miss and keeps what they produce.
//
// Every stage can be toggled off for the ablation experiments (P-NORM,
// P-SIMP, P-PHYS in DESIGN.md). The baseline path evaluates the calculus
// term directly with nested loops (EvalCalculus).
//
// A query whose top level is not a comprehension (e.g. a record of several
// aggregates, or `A union B`) unnests as the generator-less comprehension
// first{ e | } (monoid.h): its plan reduces the unit stream, and rule C9
// splices every subquery out of the head, so it too runs as one flat plan.

#ifndef LAMBDADB_CORE_OPTIMIZER_H_
#define LAMBDADB_CORE_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/algebra.h"
#include "src/core/catalog.h"
#include "src/core/expr.h"
#include "src/core/normalize.h"
#include "src/core/unnest.h"
#include "src/runtime/database.h"
#include "src/runtime/physical.h"
#include "src/runtime/slot_plan.h"

namespace ldb {

/// Wall time of one optimizer stage.
struct StageTiming {
  std::string stage;  ///< "normalize" | "unnest" | "simplify" | "typecheck"
                      ///< | "physical" | "slot-compile"
  double ms = 0;
};

/// Summary of one verifier pass (src/verify/): which IR was checked, how
/// many individual invariants, how many findings, and the wall time.
struct VerifyStageSummary {
  std::string stage;  ///< "calculus-input" | ... | "slot-plan"
  int checks = 0;
  int findings = 0;
  double ms = 0;
};

/// End-to-end record of one compilation: how long each stage took and which
/// rewrite rules fired where. The static counterpart of QueryProfiler
/// (docs/OBSERVABILITY.md); render with PrintCompileTrace (pretty.h) or
/// CompileTraceToJson (runtime/profile.h).
struct CompileTrace {
  std::vector<StageTiming> stages;        ///< in pipeline order
  std::vector<RuleFiring> normalize_rules;  ///< Figure 4 N1-N9 (+ helpers)
  std::vector<UnnestStep> unnest_steps;   ///< Figure 7 C1-C9, firing order
  int simplify_rewrites = 0;              ///< Section 5 rule applications
  std::vector<VerifyStageSummary> verify_stages;  ///< when verify_plans is on
  double total_ms = 0;                    ///< sum over stages
};

struct OptimizerOptions {
  bool normalize = true;        ///< run the Figure 4 rules first
  bool simplify = true;         ///< run the Section 5 rule on the plan
  bool materialize_paths = false;  ///< rewrite ref navigation into joins
                                   ///< (paper Section 6, citing [1])
  bool reorder_joins = false;      ///< permute inner-join chains by cost
  Catalog catalog;                 ///< statistics for reorder_joins
  bool typecheck = true;        ///< check the calculus and the final plan
  PhysicalOptions physical;     ///< hash vs nested-loop operators
  bool pipelined_execution = true;  ///< Volcano iterators (exec_pipeline)
                                    ///< vs the materializing executor
  ExecOptions exec;             ///< slot frames / parallelism knobs for the
                                ///< pipelined executor

  /// Verify that unnesting a bag comprehension cannot merge duplicate
  /// groups (every generator domain must be an extent or set-typed path);
  /// reject otherwise. See DESIGN.md, "Bags and lists". The physical
  /// GroupJoin relies on this check: it equals Figure 5's nest only while
  /// left rows are pairwise distinct on the group keys. With the check
  /// off, a GroupJoin keeps duplicate left rows apart (the baseline's
  /// answer) where a HashNest merged them.
  bool check_duplicate_safety = true;

  /// Record a CompileTrace (stage wall times + rule firings) into
  /// CompiledQuery::trace. Off by default: tracing routes normalization
  /// through the counting rewriter, which is measurably slower on tiny
  /// queries.
  bool trace = false;

  /// Run the static verifier (src/verify/) over every IR the pipeline
  /// produces — the calculus before and after normalization, the algebra
  /// after unnesting and after simplification, and the slot plan before
  /// execution — throwing VerifyError on any invariant violation. On by
  /// default in Debug builds (docs/VERIFIER.md); cheap enough to enable
  /// explicitly wherever a miscompiled plan would be expensive.
#ifndef NDEBUG
  bool verify_plans = true;
#else
  bool verify_plans = false;
#endif
};

/// A compiled query, exposing every intermediate the paper shows so that
/// examples and tests can print the Figure 1/2/8 artifacts.
struct CompiledQuery {
  ExprPtr calculus;    ///< input term
  ExprPtr normalized;  ///< after Figure 4
  AlgPtr plan;         ///< after unnesting (C1-C9)
  AlgPtr simplified;   ///< after Section 5 (== plan if simplify is off)
  TypePtr result_type; ///< nullptr when typecheck is off

  /// Stage timings + rule firings; null unless OptimizerOptions::trace.
  /// Shared (not owned) so Lower can append its stages to an
  /// already-compiled query.
  std::shared_ptr<CompileTrace> trace;
};

/// A compiled query lowered for the slot engine.
struct LoweredPlan {
  PhysPtr physical;  ///< physical plan (EXPLAIN, slow-query plan text)
  SlotPlan slots;    ///< slot-compiled plan (what executes)
};

class Optimizer {
 public:
  explicit Optimizer(const Schema& schema, OptimizerOptions options = {})
      : schema_(schema), options_(options) {}

  /// Compiles a closed calculus term through every stage. A top level that
  /// normalizes to something other than a comprehension compiles as
  /// first{ e | }; `normalized` keeps the unwrapped normal form.
  /// Throws TypeError / UnsupportedError.
  CompiledQuery Compile(const ExprPtr& calculus) const;

  /// Compile for a caller that already holds the term's normal form
  /// (Normalize(calculus), or calculus itself when `normalize` is off), as
  /// the service does for its cache key: the Figure 4 rewrite is not run
  /// again. The input is still type-checked and verified, and so is
  /// `normalized`.
  CompiledQuery Compile(const ExprPtr& calculus,
                        const ExprPtr& normalized) const;

  /// Lowers a compiled query for the slot engine: physical planning, slot
  /// compilation and, when verify_plans is on, the slot-plan verifier
  /// (throws VerifyError on a finding). Appends the "physical" and
  /// "slot-compile" stage timings and the "slot-plan" verify summary to
  /// q.trace when there is one.
  LoweredPlan Lower(const CompiledQuery& q, const Database& db) const;

  /// Executes a compiled query: Lower, then the slot engine, or the
  /// materializing executor when pipelined_execution is off.
  Value Execute(const CompiledQuery& q, const Database& db) const;

  /// Execute(Compile(calculus), db).
  Value Run(const ExprPtr& calculus, const Database& db) const;

  const Schema& schema() const { return schema_; }
  const OptimizerOptions& options() const { return options_; }

 private:
  const Schema& schema_;
  OptimizerOptions options_;
};

}  // namespace ldb

#endif  // LAMBDADB_CORE_OPTIMIZER_H_
