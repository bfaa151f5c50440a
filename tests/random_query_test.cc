// Randomized soundness fuzzing: generates hundreds of random well-typed
// comprehensions over the Company schema — nested to several levels, with
// quantifiers, aggregates, and correlated predicates — and checks that the
// unnested plan's result equals the nested-loop baseline's (Theorem 2) and
// that every plan is comprehension-free (Theorem 1). This explores corners
// the hand-written battery cannot (odd correlation patterns, aggregates
// under quantifiers under aggregates, constant predicates, empty results).
//
// The primary optimizer runs with verify_plans on, making this a three-way
// property check per query: the two oracles' results (the nested-loop
// baseline and the materializing executor), the slot engine's result, and
// the static verifier's verdict over every IR the pipeline produced
// (docs/VERIFIER.md) must all agree that the plan is correct.
// Each accepted query also checks the plan-cache key: normalizing the term
// twice gives key-equal normal forms with equal hashes, and across a seed's
// queries equal keys imply equal baseline answers (ExprKeyEqual). Every
// fifth query is also paired with its predecessor under a record, so top
// levels that are not comprehensions take the same checks.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/core/normalize.h"
#include "src/core/pretty.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

// A random well-typed query generator. Every generated term type-checks by
// construction: variables track their class, attribute picks are type-aware.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  // A bound variable and its class.
  struct Binding {
    std::string var;
    std::string cls;
  };

  ExprPtr GenQuery() {
    scope_.clear();
    next_var_ = 0;
    return GenComp(PickOuterMonoid(), /*depth=*/0);
  }

 private:
  std::mt19937_64 rng_;
  std::vector<Binding> scope_;
  int next_var_ = 0;

  int Rand(int n) { return static_cast<int>(rng_() % static_cast<uint64_t>(n)); }
  bool Coin(double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng_) < p;
  }

  MonoidKind PickOuterMonoid() {
    static const MonoidKind kChoices[] = {MonoidKind::kSet, MonoidKind::kSet,
                                          MonoidKind::kSum, MonoidKind::kSome,
                                          MonoidKind::kAll, MonoidKind::kMax};
    return kChoices[Rand(6)];
  }

  // Extents and their classes.
  struct ExtentInfo {
    const char* extent;
    const char* cls;
  };
  const ExtentInfo* PickExtent() {
    static const ExtentInfo kExtents[] = {{"Employees", "Employee"},
                                          {"Departments", "Department"},
                                          {"Managers", "Manager"},
                                          {"Persons", "Person"}};
    return &kExtents[Rand(4)];
  }

  // Numeric paths per class (attribute chains yielding int/real). The
  // `manager.` prefix may traverse a NULL, which is exactly the interesting
  // case.
  std::pair<ExprPtr, bool> NumericPath(const Binding& b) {
    auto path = [&](std::initializer_list<const char*> attrs) {
      ExprPtr e = Expr::Var(b.var);
      for (const char* a : attrs) e = Expr::Proj(e, a);
      return e;
    };
    if (b.cls == "Employee") {
      switch (Rand(4)) {
        case 0: return {path({"age"}), true};
        case 1: return {path({"salary"}), false};
        case 2: return {path({"dno"}), true};
        default: return {path({"manager", "age"}), true};
      }
    }
    if (b.cls == "Department") {
      return Rand(2) == 0 ? std::make_pair(path({"dno"}), true)
                          : std::make_pair(path({"budget"}), false);
    }
    if (b.cls == "Manager") {
      return Rand(2) == 0 ? std::make_pair(path({"age"}), true)
                          : std::make_pair(path({"salary"}), false);
    }
    return {path({"age"}), true};  // Person
  }

  // Collection-valued paths per class (all set-typed in this schema).
  ExprPtr CollectionPath(const Binding& b) {
    if (b.cls == "Employee") {
      return Rand(2) == 0
                 ? Expr::Proj(Expr::Var(b.var), "children")
                 : Expr::Path(Expr::Var(b.var), {"manager", "children"});
    }
    if (b.cls == "Manager") return Expr::Proj(Expr::Var(b.var), "children");
    return nullptr;
  }

  std::string FreshVar() { return "g" + std::to_string(next_var_++); }

  // One comparison between numeric expressions in scope.
  ExprPtr GenComparison() {
    static const BinOpKind kCmp[] = {BinOpKind::kEq, BinOpKind::kNe,
                                     BinOpKind::kLt, BinOpKind::kLe,
                                     BinOpKind::kGt, BinOpKind::kGe};
    const Binding& a = scope_[static_cast<size_t>(Rand(static_cast<int>(scope_.size())))];
    auto [lhs, lhs_int] = NumericPath(a);
    ExprPtr rhs;
    if (scope_.size() > 1 && Coin(0.5)) {
      const Binding& b =
          scope_[static_cast<size_t>(Rand(static_cast<int>(scope_.size())))];
      rhs = NumericPath(b).first;
    } else {
      rhs = lhs_int ? Expr::Int(Rand(60)) : Expr::Real(Rand(120000));
    }
    return Expr::Bin(kCmp[Rand(6)], lhs, rhs);
  }

  // A nested comprehension usable as a boolean predicate.
  ExprPtr GenQuantifier(int depth) {
    MonoidKind m = Coin(0.5) ? MonoidKind::kSome : MonoidKind::kAll;
    return GenComp(m, depth + 1);
  }

  // A nested comprehension usable as a numeric value.
  ExprPtr GenAggregate(int depth) {
    static const MonoidKind kAggs[] = {MonoidKind::kSum, MonoidKind::kMax,
                                       MonoidKind::kMin, MonoidKind::kAvg};
    return GenComp(kAggs[Rand(4)], depth + 1);
  }

  ExprPtr GenPredicate(int depth) {
    if (depth < 2 && Coin(0.35)) {
      if (Coin(0.5)) return GenQuantifier(depth);
      // aggregate comparison: agg{...} cmp constant
      return Expr::Bin(Coin(0.5) ? BinOpKind::kLt : BinOpKind::kGe,
                       GenAggregate(depth), Expr::Int(Rand(10)));
    }
    ExprPtr cmp = GenComparison();
    if (Coin(0.2)) cmp = Expr::Not(cmp);
    if (Coin(0.2)) cmp = Expr::And(cmp, GenComparison());
    if (Coin(0.1)) cmp = Expr::Bin(BinOpKind::kOr, cmp, GenComparison());
    return cmp;
  }

  ExprPtr GenHead(MonoidKind m, int depth) {
    const Binding& b =
        scope_[static_cast<size_t>(Rand(static_cast<int>(scope_.size())))];
    switch (m) {
      case MonoidKind::kSome:
      case MonoidKind::kAll:
        return GenPredicate(depth);  // boolean head
      case MonoidKind::kSum:
      case MonoidKind::kMax:
      case MonoidKind::kMin:
      case MonoidKind::kAvg:
        if (depth < 2 && Coin(0.15)) return GenAggregate(depth);  // N9 fodder
        return NumericPath(b).first;
      default: {  // collection head
        if (Coin(0.4)) return Expr::Var(b.var);
        if (depth < 2 && Coin(0.3)) {
          // record with a nested subquery field
          return Expr::Record({{"k", NumericPath(b).first},
                               {"v", Coin(0.5) ? GenAggregate(depth)
                                               : GenComp(MonoidKind::kSet,
                                                         depth + 1)}});
        }
        return Expr::Record({{"a", NumericPath(b).first},
                             {"b", NumericPath(b).first}});
      }
    }
  }

  ExprPtr GenComp(MonoidKind m, int depth) {
    size_t scope_mark = scope_.size();
    std::vector<Qualifier> quals;
    // Inner comprehensions get one generator: stacked uncorrelated
    // multi-generator subqueries make the spliced stream's size the product
    // of all their extents (hundreds of millions of rows at depth 2) —
    // a cost blowup of full materialization, not a soundness question.
    int n_gens = 1 + ((depth == 0 && Coin(0.5)) ? 1 : 0);
    for (int i = 0; i < n_gens; ++i) {
      std::string v = FreshVar();
      ExprPtr domain;
      std::string cls;
      // Prefer path domains when a collection-bearing var is in scope.
      ExprPtr coll;
      if (!scope_.empty() && Coin(0.45)) {
        const Binding& b = scope_[static_cast<size_t>(
            Rand(static_cast<int>(scope_.size())))];
        coll = CollectionPath(b);
      }
      if (coll) {
        domain = coll;
        cls = "Person";  // children collections hold Persons
      } else {
        const ExtentInfo* ext = PickExtent();
        domain = Expr::Var(ext->extent);
        cls = ext->cls;
      }
      quals.push_back(Qualifier::Generator(v, domain));
      scope_.push_back(Binding{v, cls});
    }
    if (Coin(0.8)) quals.push_back(Qualifier::Filter(GenPredicate(depth)));
    ExprPtr head = GenHead(m, depth);
    scope_.resize(scope_mark);
    return Expr::Comp(m, head, std::move(quals));
  }
};

class RandomQueryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomQueryTest, PlanMatchesBaseline) {
  workload::CompanyParams params;
  params.n_departments = 5;
  params.n_employees = 30;
  params.n_managers = 4;
  params.seed = GetParam() * 1337 + 17;
  Database db = workload::MakeCompanyDatabase(params);
  OptimizerOptions verify_opts;
  verify_opts.verify_plans = true;  // static verdict alongside the engines
  Optimizer opt(db.schema(), verify_opts);

  // Differential executor harness: the same compiled plan must agree across
  // every executor. `opt` above is the default (serial slot-frame
  // pipeline); these cover the materializing algebra executor and the
  // parallel slot engine. A tiny morsel size
  // forces many morsels even on this 30-employee extent, so the parallel
  // merge paths (per-morsel accumulators, partial group tables) really run.
  OptimizerOptions algebra_opts;
  algebra_opts.pipelined_execution = false;
  Optimizer opt_algebra(db.schema(), algebra_opts);
  OptimizerOptions par_opts;
  par_opts.exec.n_threads = 4;
  par_opts.exec.morsel_size = 4;
  Optimizer opt_par(db.schema(), par_opts);

  // Each accepted query's normal form and baseline answer, for the
  // equal-keys-equal-answers check below.
  std::vector<std::pair<ExprPtr, Value>> keyed;

  // Checks one query against every executor, the verifier, and its plan
  // key. Returns false when the optimizer declines the query.
  auto check = [&](const ExprPtr& q, bool materialize) {
    // Every generated query must type-check (generator invariant).
    EXPECT_NO_THROW(TypeCheck(q, db.schema()));
    Value baseline = EvalCalculus(q, db);
    Value via_plan;
    CompiledQuery compiled;
    try {
      compiled = opt.Compile(q);
      EXPECT_TRUE(IsFullyUnnested(compiled.plan));
      via_plan = opt.Execute(compiled, db);
    } catch (const UnsupportedError&) {
      return false;  // e.g. a non-canonical residue; baseline-only territory
    } catch (const VerifyError& e) {
      // A verifier rejection on a fuzzed query is a bug in either the
      // optimizer or the verifier; recompile unverified so the failure
      // message carries the IR the verifier objected to.
      OptimizerOptions noverify;
      noverify.verify_plans = false;
      CompiledQuery c2 = Optimizer(db.schema(), noverify).Compile(q);
      ADD_FAILURE() << e.what() << "\nnormalized: " << PrintExpr(c2.normalized)
                    << "\nplan:\n"
                    << PrintPlan(c2.plan);
      return false;
    }
    EXPECT_EQ(via_plan, baseline);
    // The plan key: normalization fresh-names bound variables, so two runs
    // over one term differ in those names and nowhere else. (That the
    // normal form is a Figure 4 fixpoint is the verifier's
    // calculus-normalized check, which `opt` runs.)
    const ExprPtr again = Normalize(q);
    EXPECT_TRUE(ExprKeyEqual(compiled.normalized, again))
        << PrintExpr(compiled.normalized) << "\nvs\n" << PrintExpr(again);
    EXPECT_EQ(ExprKeyHash(compiled.normalized), ExprKeyHash(again));
    keyed.emplace_back(compiled.normalized, baseline);
    // serial slot pipeline == materializing executor == parallel slot
    // pipeline == baseline, on every plan the optimizer accepts. The
    // parallel result must be byte-identical (ExactSum makes kSum/kAvg
    // order-independent; group merges preserve morsel order).
    EXPECT_EQ(opt_algebra.Execute(compiled, db), baseline)
        << "materializing algebra executor";
    EXPECT_EQ(opt_par.Execute(compiled, db), baseline)
        << "parallel slot pipeline";
    // Path materialization must also be meaning-preserving on every fuzzed
    // query (the generator emits plenty of e.manager.x navigation).
    if (materialize) {
      OptimizerOptions mat;
      mat.materialize_paths = true;
      Optimizer opt_mat(db.schema(), mat);
      EXPECT_EQ(opt_mat.Run(q, db), baseline) << "materialized";
    }
    return true;
  };

  QueryGen gen(GetParam());
  int checked = 0;
  int composites = 0;
  ExprPtr previous;
  for (int i = 0; i < 40; ++i) {
    ExprPtr q = gen.GenQuery();
    {
      SCOPED_TRACE("seed " + std::to_string(GetParam()) + " #" +
                   std::to_string(i) + ": " + PrintExpr(q));
      if (check(q, i % 4 == 0)) ++checked;
    }
    // Every fifth query also runs paired with the one before it under a
    // record: a top level that is not a comprehension, which unnests as
    // first{ struct(...) | } through the same executors and verifier.
    if (i % 5 == 4) {
      ExprPtr pair = Expr::Record({{"a", previous}, {"b", q}});
      SCOPED_TRACE("seed " + std::to_string(GetParam()) + " composite #" +
                   std::to_string(i) + ": " + PrintExpr(pair));
      if (check(pair, true)) ++composites;
    }
    previous = q;
  }
  // The generator must actually exercise the optimizer, not skip everything.
  EXPECT_GE(checked, 25);
  EXPECT_GE(composites, 1);
  // Queries that would share a cached plan share an answer.
  for (size_t i = 0; i < keyed.size(); ++i) {
    for (size_t j = i + 1; j < keyed.size(); ++j) {
      if (ExprKeyEqual(keyed[i].first, keyed[j].first)) {
        EXPECT_EQ(keyed[i].second, keyed[j].second)
            << "key-equal normal forms, different answers:\n"
            << PrintExpr(keyed[i].first) << "\n" << PrintExpr(keyed[j].first);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

void CountGroupJoins(const PhysPtr& op, std::map<std::string, int>* counts) {
  if (!op) return;
  if (op->kind == PhysKind::kGroupJoin) {
    ++(*counts)[GroupJoinStrategyName(op->strategy)];
  }
  CountGroupJoins(op->left, counts);
  CountGroupJoins(op->right, counts);
}

TEST(RandomQueryCorpusTest, EveryGroupJoinStrategyOccurs) {
  // The seeds' corpus (the same queries and composites PlanMatchesBaseline
  // runs through every executor) must exercise each GroupJoin strategy, so
  // the differential check above covers all three.
  std::map<std::string, int> counts;
  for (uint64_t seed = 1; seed < 13; ++seed) {
    workload::CompanyParams params;
    params.n_departments = 5;
    params.n_employees = 30;
    params.n_managers = 4;
    params.seed = seed * 1337 + 17;
    Database db = workload::MakeCompanyDatabase(params);
    Optimizer opt(db.schema());
    // Counts each accepted query once per strategy its plan runs.
    auto count = [&](const ExprPtr& q) {
      std::map<std::string, int> ops;
      try {
        CountGroupJoins(PlanPhysical(opt.Compile(q).simplified, db), &ops);
      } catch (const UnsupportedError&) {
        return;  // declined by the optimizer: not in the differential corpus
      }
      for (const auto& [strategy, n] : ops) ++counts[strategy];
    };
    QueryGen gen(seed);
    ExprPtr previous;
    for (int i = 0; i < 40; ++i) {
      ExprPtr q = gen.GenQuery();
      count(q);
      if (i % 5 == 4) count(Expr::Record({{"a", previous}, {"b", q}}));
      previous = q;
    }
  }
  std::printf("queries per group-join strategy over 12 seeds: aggregate %d, "
              "sorted %d, loop %d\n",
              counts["aggregate"], counts["sorted"], counts["loop"]);
  EXPECT_GE(counts["aggregate"], 1);
  EXPECT_GE(counts["sorted"], 1);
  EXPECT_GE(counts["loop"], 1);
}

}  // namespace
}  // namespace ldb
