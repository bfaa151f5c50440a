// Property-based suites (parameterized gtest):
//
//  * Soundness (Theorem 2): for a battery of queries over randomized
//    databases of several sizes/seeds, the unnested plan's result equals the
//    nested-loop baseline's.
//  * Completeness (Theorem 1): every compiled plan is fully unnested.
//  * Normalization preserves meaning and is idempotent.
//  * Every stage toggle (normalize/simplify/hash) preserves results.

#include <gtest/gtest.h>

#include <ostream>

#include "src/core/normalize.h"
#include "src/core/pretty.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

// The query battery over the Company schema, exercising every nesting class:
// flat (none), N (generator nesting), J (existential), A (aggregate),
// JA (correlated aggregate/quantifier), and multi-level nesting.
const char* kCompanyQueries[] = {
    // flat
    "select distinct e.name from e in Employees where e.age > 30",
    "select distinct struct(E: e.name, C: c.name) "
    "from e in Employees, c in e.children",
    // type N: nested generator domain
    "select distinct p.name from p in (select distinct e from e in Employees "
    "where e.salary > 50000)",
    // type J: existential / membership
    "select distinct e.name from e in Employees "
    "where exists c in e.children: c.age < 10",
    "select distinct d.name from d in Departments "
    "where d.dno in (select e.dno from e in Employees)",
    // type A: uncorrelated aggregate
    "select distinct e.name from e in Employees "
    "where e.salary > avg(select u.salary from u in Employees)",
    // type JA: correlated aggregate (the count bug shape)
    "select distinct struct(D: d.name, n: count(select e from e in Employees "
    "where e.dno = d.dno)) from d in Departments",
    "select distinct d.name from d in Departments "
    "where count(select e from e in Employees where e.dno = d.dno) = 0",
    // correlated max in predicate (Section 2 example)
    "select distinct e.name from e in Employees "
    "where e.salary < max(select m.salary from m in Managers "
    "where e.age > m.age)",
    // universal quantification over a subquery (Query E shape)
    "select distinct e.name from e in Employees "
    "where for all c in e.children: c.age > 3",
    // double nesting (Query D)
    "select distinct struct(E: e.name, M: count(select distinct c "
    "from c in e.children "
    "where for all d in e.manager.children: c.age > d.age)) "
    "from e in Employees",
    // group by (Figure 8)
    "select distinct e.dno, avg(e.salary) from Employees e "
    "where e.age > 30 group by e.dno",
    "select distinct e.dno, count(e), max(e.salary) from Employees e "
    "group by e.dno",
    // aggregates of aggregates
    "max(select count(select c from c in e.children) from e in Employees)",
    // nested query in head over a different extent
    "select distinct struct(m: m.name, peers: (select distinct e.name "
    "from e in Employees where e.manager = m)) from m in Managers",
    // bag semantics without nesting
    "select e.dno from e in Employees",
    // bag semantics with safe nesting
    "select struct(n: e.name, k: count(select c from c in e.children)) "
    "from e in Employees",
};

struct PropertyParams {
  int n_departments;
  int n_employees;
  int n_managers;
  uint64_t seed;
};

// Prints an instance's parameters, e.g. `d3_e10_m2_s1`. CMake's
// gtest_discover_tests puts the printed parameter in the ctest name; without
// a printer gtest prints the struct's raw bytes, padding included, and the
// names differ from build to build.
void PrintTo(const PropertyParams& p, std::ostream* os) {
  *os << 'd' << p.n_departments << "_e" << p.n_employees << "_m"
      << p.n_managers << "_s" << p.seed;
}

class CompanySoundnessTest : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(CompanySoundnessTest, PlanEqualsBaselineAndPlansAreComplete) {
  const PropertyParams& p = GetParam();
  workload::CompanyParams params;
  params.n_departments = p.n_departments;
  params.n_employees = p.n_employees;
  params.n_managers = p.n_managers;
  params.seed = p.seed;
  Database db = workload::MakeCompanyDatabase(params);

  Optimizer opt(db.schema());
  for (const char* q : kCompanyQueries) {
    ExprPtr calculus = ParseOQL(q);
    Value baseline = EvalCalculus(calculus, db);
    // Completeness: when the query is comprehension-rooted, its plan has no
    // comprehension left anywhere.
    ExprPtr normalized = Normalize(calculus);
    if (normalized->kind == ExprKind::kComp) {
      CompiledQuery compiled = opt.Compile(calculus);
      EXPECT_TRUE(IsFullyUnnested(compiled.plan)) << q;
      EXPECT_TRUE(IsFullyUnnested(compiled.simplified)) << q;
    }
    EXPECT_EQ(opt.Run(calculus, db), baseline)
        << "seed=" << p.seed << " query: " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CompanySoundnessTest,
    ::testing::Values(PropertyParams{3, 10, 2, 1}, PropertyParams{5, 40, 4, 2},
                      PropertyParams{8, 120, 6, 3}, PropertyParams{2, 7, 1, 4},
                      PropertyParams{1, 1, 1, 5}, PropertyParams{4, 0, 0, 6},
                      PropertyParams{12, 60, 3, 7}));

class OptionTogglesTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptionTogglesTest, EveryStageToggleIsMeaningPreserving) {
  workload::CompanyParams params;
  params.n_departments = 6;
  params.n_employees = 50;
  params.seed = GetParam();
  Database db = workload::MakeCompanyDatabase(params);

  OptimizerOptions variants[5];
  variants[1].normalize = false;
  variants[2].simplify = false;
  variants[3].physical.use_hash_joins = false;
  variants[4].materialize_paths = true;

  for (const char* q : kCompanyQueries) {
    Value baseline = RunOQLBaseline(db, q);
    for (const OptimizerOptions& o : variants) {
      try {
        EXPECT_EQ(RunOQL(db, q, o), baseline)
            << "query: " << q << " (normalize=" << o.normalize
            << " simplify=" << o.simplify
            << " hash=" << o.physical.use_hash_joins << ")";
      } catch (const UnsupportedError&) {
        // Without normalization, type-N queries keep comprehension-valued
        // generator domains, which the unnester (correctly) rejects — the
        // paper requires canonical form before unnesting.
        EXPECT_FALSE(o.normalize) << q;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptionTogglesTest,
                         ::testing::Values(11, 12, 13));

class UniversitySoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UniversitySoundnessTest, QueryEAgreesAcrossScales) {
  workload::UniversityParams params;
  params.n_students = 30;
  params.n_courses = 8;
  params.seed = GetParam();
  Database db = workload::MakeUniversityDatabase(params);
  const char* q =
      "select distinct s.name from s in Students "
      "where for all c in select c from c in Courses where c.title = 'DB': "
      "exists t in Transcripts: t.sid = s.sid and t.cno = c.cno";
  EXPECT_EQ(RunOQL(db, q), RunOQLBaseline(db, q)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniversitySoundnessTest,
                         ::testing::Range(uint64_t{20}, uint64_t{30}));

class NormalizePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NormalizePropertyTest, NormalizationPreservesMeaningAndIsIdempotent) {
  workload::CompanyParams params;
  params.n_departments = 4;
  params.n_employees = 25;
  params.seed = GetParam();
  Database db = workload::MakeCompanyDatabase(params);
  for (const char* q : kCompanyQueries) {
    ExprPtr e = ParseOQL(q);
    ExprPtr n = Normalize(e);
    EXPECT_EQ(EvalCalculus(e, db), EvalCalculus(n, db)) << q;
    EXPECT_TRUE(ExprEqual(n, Normalize(n))) << "not idempotent: " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizePropertyTest,
                         ::testing::Values(31, 32, 33, 34));

class TypePreservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TypePreservationTest, PlanTypeMatchesCalculusType) {
  workload::CompanyParams params;
  params.seed = GetParam();
  Database db = workload::MakeCompanyDatabase(params);
  Optimizer opt(db.schema());
  for (const char* q : kCompanyQueries) {
    ExprPtr calculus = ParseOQL(q);
    if (Normalize(calculus)->kind != ExprKind::kComp) continue;
    TypePtr before = TypeCheck(calculus, db.schema());
    CompiledQuery compiled = opt.Compile(calculus);
    ASSERT_NE(compiled.result_type, nullptr);
    EXPECT_TRUE(Type::Equal(before, compiled.result_type))
        << q << ": " << before->ToString() << " vs "
        << compiled.result_type->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TypePreservationTest, ::testing::Values(41));

}  // namespace
}  // namespace ldb
