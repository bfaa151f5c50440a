// Experiment F1.A-F1.E + F2 (DESIGN.md): regenerates the algebraic plans of
// Figure 1 (Queries A-E) and the unnesting pipeline of Figure 2 as text, and
// verifies each plan's result against the nested-loop baseline on the
// matching workload. The *shape* of each printed plan is the paper artifact
// being reproduced; the timing row shows the effect of unnesting at a small
// scale.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/workload/company.h"
#include "src/workload/university.h"

namespace {

using namespace ldb;

struct FigureQuery {
  const char* id;
  const char* description;
  const char* oql;
};

void ShowQuery(const Database& db, const FigureQuery& fq) {
  bench::PrintHeader((std::string(fq.id) + ": " + fq.description).c_str());
  std::printf("OQL:\n  %s\n\n", fq.oql);
  ExprPtr calculus = ParseOQL(fq.oql);
  std::printf("monoid calculus:\n  %s\n\n", PrintExpr(calculus).c_str());
  ExprPtr normalized = Normalize(calculus);
  std::printf("normalized:\n  %s\n\n", PrintExpr(normalized).c_str());
  AlgPtr plan = UnnestComp(normalized, db.schema());
  std::printf("unnested algebra plan (the Figure 1 artifact):\n%s\n",
              PrintPlan(plan).c_str());
  std::printf("physical plan:\n%s\n",
              PrintPhysicalPlan(PlanPhysical(plan, db)).c_str());
  bench::StrategyTimes t = bench::RunStrategies(db, fq.oql);
  bench::PrintRowHeader();
  bench::PrintRow(fq.id, t);
  auto record = [&](const char* engine, double ms) {
    bench::JsonRecord r;
    r.experiment = fq.id;
    r.query = fq.oql;
    r.engine = engine;
    r.rows = t.rows;
    r.ms = ms;
    r.agree = t.results_agree;
    bench::JsonReporter::Get().Add(std::move(r));
  };
  record("baseline", t.baseline_ms);
  record("unnested-nl", t.unnested_nl_ms);
  record("unnested-hash", t.unnested_hash_ms);
}

}  // namespace

int main(int argc, char** argv) {
  if (!ldb::bench::JsonReporter::Get().ParseArgs(argc, argv)) return 1;
  ldb::Gensym::Reset();

  ldb::workload::CompanyParams cp;
  cp.n_departments = 40;
  cp.n_employees = 2000;
  cp.n_managers = 40;
  ldb::Database company = ldb::workload::MakeCompanyDatabase(cp);

  ldb::workload::UniversityParams up;
  up.n_students = 800;
  up.n_courses = 40;
  ldb::Database university = ldb::workload::MakeUniversityDatabase(up);

  const FigureQuery kQueryA{
      "Figure 1.A (QUERY A)", "flat select-from over employees and children",
      "select distinct struct(E: e.name, C: c.name) "
      "from e in Employees, c in e.children"};
  const FigureQuery kQueryB{
      "Figure 1.B (QUERY B)",
      "nested set query in the head: outer-join + nest",
      "select distinct struct(D: d.name, E: (select distinct e.name "
      "from e in Employees where e.dno = d.dno)) from d in Departments"};
  const FigureQuery kQueryD{
      "Figure 1.D (QUERY D)",
      "double-nested count + universal quantifier: two outer-unnest/nest pairs",
      "select distinct struct(E: e.name, M: count(select distinct c "
      "from c in e.children "
      "where for all d in e.manager.children: c.age > d.age)) "
      "from e in Employees"};
  const FigureQuery kQueryE{
      "Figure 1.E / Figure 2 (QUERY E)",
      "students who took all DB courses: ∀ over ∃ via two outer-joins",
      "select distinct s.name from s in Students "
      "where for all c in select c from c in Courses where c.title = 'DB': "
      "exists t in Transcripts: t.sid = s.sid and t.cno = c.cno"};

  ShowQuery(company, kQueryA);
  ShowQuery(company, kQueryB);

  // Figure 1.C is pure calculus (A ⊆ B): build it directly.
  {
    using ldb::Expr;
    bench::PrintHeader("Figure 1.C (QUERY C): A subset-of B as all{some{...}}");
    ldb::ExprPtr q = Expr::Comp(
        ldb::MonoidKind::kAll,
        Expr::Comp(ldb::MonoidKind::kSome,
                   Expr::Eq(Expr::Proj(Expr::Var("a"), "dno"),
                            Expr::Proj(Expr::Var("b"), "dno")),
                   {ldb::Qualifier::Generator("b", Expr::Var("Departments"))}),
        {ldb::Qualifier::Generator("a", Expr::Var("Employees"))});
    std::printf("monoid calculus:\n  %s\n\n", ldb::PrintExpr(q).c_str());
    ldb::AlgPtr plan = ldb::UnnestComp(ldb::Normalize(q), company.schema());
    std::printf("unnested algebra plan:\n%s\n", ldb::PrintPlan(plan).c_str());
    ldb::Value via_plan = ldb::ExecutePlan(plan, company);
    ldb::Value via_loops = ldb::EvalCalculus(q, company);
    std::printf("result: %s (baseline agrees: %s)\n",
                via_plan.ToString().c_str(),
                via_plan == via_loops ? "yes" : "NO!");
  }

  ShowQuery(company, kQueryD);

  // Figure 2: the staged unnesting of Query E, box by box.
  bench::PrintHeader("Figure 2: unnesting pipeline of QUERY E, stage by stage");
  {
    ldb::ExprPtr calculus = ldb::ParseOQL(kQueryE.oql);
    std::printf("stage 1 - calculus (boxes A/B/C as nested comprehensions):\n"
                "  %s\n\n", ldb::PrintExpr(calculus).c_str());
    ldb::ExprPtr normalized = ldb::Normalize(calculus);
    std::printf("stage 2 - normalized (N7 flattens the course domain, the\n"
                "          existential predicate moves into join position):\n"
                "  %s\n\n", ldb::PrintExpr(normalized).c_str());
    std::vector<ldb::UnnestStep> steps;
    ldb::AlgPtr plan =
        ldb::UnnestCompTraced(normalized, university.schema(), &steps);
    std::printf("stage 3 - rule applications (Figure 7):\n");
    for (const ldb::UnnestStep& s : steps) {
      std::printf("  (%s) %s\n", s.rule.c_str(), s.description.c_str());
    }
    std::printf("\nstage 4 - spliced boxes: joins became outer-joins,\n"
                "          reductions became nests, inner nest converts null\n"
                "          t's to false, outer nest converts null c's to true:\n"
                "%s\n", ldb::PrintPlan(plan).c_str());
  }

  ShowQuery(university, kQueryE);
  if (!ldb::bench::JsonReporter::Get().Write("bench_figure1")) return 1;
  return 0;
}
