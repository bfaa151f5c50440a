// Quickstart: build a tiny OODB, run one nested OQL query through the full
// pipeline, and print every intermediate the paper shows — calculus,
// normalized form, unnested algebra plan, physical plan, result.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "src/lambdadb.h"
#include "src/workload/company.h"

int main() {
  using namespace ldb;

  // 1. Build a small company database (see src/workload/company.h for the
  //    schema: Employees, Departments, Managers, Persons).
  workload::CompanyParams params;
  params.n_departments = 5;
  params.n_employees = 30;
  params.seed = 7;
  Database db = workload::MakeCompanyDatabase(params);
  std::printf("database: %zu objects across %zu classes\n\n", db.ObjectCount(),
              db.schema().classes().size());

  // 2. A nested query: for every department, the names of its employees.
  //    This is the paper's QUERY B — the classic "nested query in the head".
  const char* oql =
      "select distinct struct(D: d.name, E: (select distinct e.name "
      "from e in Employees where e.dno = d.dno)) "
      "from d in Departments";
  std::printf("OQL:\n  %s\n\n", oql);

  // 3. Walk the pipeline stage by stage.
  ExprPtr calculus = ParseOQL(oql);
  std::printf("monoid calculus:\n  %s\n\n", PrintExpr(calculus).c_str());

  Optimizer optimizer(db.schema());
  CompiledQuery compiled = optimizer.Compile(calculus);
  std::printf("result type: %s\n\n", compiled.result_type->ToString().c_str());
  std::printf("unnested algebra plan (outer-join + nest, Figure 1.B):\n%s\n",
              PrintPlan(compiled.simplified).c_str());
  std::printf("physical plan:\n%s\n",
              PrintPhysicalPlan(PlanPhysical(compiled.simplified, db)).c_str());

  // 4. Execute — and cross-check against the naive nested-loop baseline.
  Value result = optimizer.Execute(compiled, db);
  Value baseline = RunOQLBaseline(db, oql);
  std::printf("result (%zu departments):\n", result.AsElems().size());
  for (const Value& row : result.AsElems()) {
    std::printf("  %s\n", row.ToString().c_str());
  }
  std::printf("\nbaseline (no unnesting) agrees: %s\n",
              result == baseline ? "yes" : "NO");

  // 5. One-liners for everything above:
  Value oneliner = RunOQL(db, "count(select e from e in Employees "
                              "where e.salary > 50000)");
  std::printf("employees over 50k: %s\n", oneliner.ToString().c_str());
  return 0;
}
