// Micro-benchmarks of the optimizer stages themselves (google-benchmark):
// lexing/parsing, translation, normalization, unnesting, simplification, and
// full compilation. The paper claims the unnesting algorithm "takes time
// linear to the size of the query" (Section 8); BM_Unnest_ChainLength checks
// that compile time grows roughly linearly in the number of nested levels.

#include <benchmark/benchmark.h>

#include <string>

#include "src/lambdadb.h"
#include "src/workload/company.h"

namespace {

using namespace ldb;

const char* kQueryD =
    "select distinct struct(E: e.name, M: count(select distinct c "
    "from c in e.children "
    "where for all d in e.manager.children: c.age > d.age)) "
    "from e in Employees";

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(oql::Parse(kQueryD));
  }
}
BENCHMARK(BM_Parse);

void BM_Translate(benchmark::State& state) {
  oql::NodePtr ast = oql::Parse(kQueryD);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oql::Translate(ast));
  }
}
BENCHMARK(BM_Translate);

void BM_Normalize(benchmark::State& state) {
  ExprPtr calculus = ParseOQL(kQueryD);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Normalize(calculus));
  }
}
BENCHMARK(BM_Normalize);

void BM_Unnest(benchmark::State& state) {
  Schema schema = workload::CompanySchema();
  ExprPtr normalized = Normalize(ParseOQL(kQueryD));
  for (auto _ : state) {
    benchmark::DoNotOptimize(UnnestComp(normalized, schema));
  }
}
BENCHMARK(BM_Unnest);

void BM_FullCompile(benchmark::State& state) {
  Schema schema = workload::CompanySchema();
  Optimizer opt(schema);
  ExprPtr calculus = ParseOQL(kQueryD);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.Compile(calculus));
  }
}
BENCHMARK(BM_FullCompile);

// Builds a query with `depth` levels of correlated aggregation:
//   count(select e2 ... where e2.dno = e.dno and count(...) >= 0)
std::string NestedQuery(int depth) {
  std::string inner = "0";
  for (int i = depth; i >= 1; --i) {
    std::string v = "e";
    v += std::to_string(i);
    std::string outer_var = "e";
    outer_var += std::to_string(i - 1);
    inner = "count(select " + v + " from " + v + " in Employees where " + v +
            ".dno = " + outer_var + ".dno and " + inner + " >= 0)";
  }
  return "select distinct e0.name from e0 in Employees where " + inner +
         " >= 0";
}

void BM_Unnest_ChainLength(benchmark::State& state) {
  Schema schema = workload::CompanySchema();
  ExprPtr normalized = Normalize(ParseOQL(NestedQuery(static_cast<int>(state.range(0)))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(UnnestComp(normalized, schema));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Unnest_ChainLength)->DenseRange(1, 8)->Complexity();

void BM_Simplify(benchmark::State& state) {
  Schema schema = workload::CompanySchema();
  AlgPtr plan = UnnestComp(
      Normalize(ParseOQL("select distinct e.dno, avg(e.salary) "
                         "from Employees e group by e.dno")),
      schema);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Simplify(plan, schema));
  }
}
BENCHMARK(BM_Simplify);

void BM_HashJoinExecution(benchmark::State& state) {
  workload::CompanyParams p;
  p.n_employees = static_cast<int>(state.range(0));
  p.n_departments = std::max<int>(4, static_cast<int>(state.range(0) / 40));
  Database db = workload::MakeCompanyDatabase(p);
  Optimizer opt(db.schema());
  CompiledQuery q = opt.Compile(ParseOQL(
      "select distinct struct(e: e.name, d: d.name) "
      "from e in Employees, d in Departments where e.dno = d.dno"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.Execute(q, db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoinExecution)->Arg(1000)->Arg(4000)->Arg(16000);

// Engine comparison: pipelined Volcano iterators vs the materializing
// executor. The existential query shows the pipeline's short-circuit: the
// root `some` stops pulling at the first witness, while the materializing
// engine computes every stream fully.
void BM_Engine_Pipelined_Exists(benchmark::State& state) {
  workload::CompanyParams p;
  p.n_employees = static_cast<int>(state.range(0));
  Database db = workload::MakeCompanyDatabase(p);
  Optimizer opt(db.schema());
  CompiledQuery q = opt.Compile(ParseOQL(
      "exists(select e from e in Employees, d in Departments "
      "where e.dno = d.dno)"));
  PhysPtr phys = PlanPhysical(q.simplified, db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutePipelined(phys, db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Engine_Pipelined_Exists)->Arg(1000)->Arg(8000);

void BM_Engine_Materializing_Exists(benchmark::State& state) {
  workload::CompanyParams p;
  p.n_employees = static_cast<int>(state.range(0));
  Database db = workload::MakeCompanyDatabase(p);
  Optimizer opt(db.schema());
  CompiledQuery q = opt.Compile(ParseOQL(
      "exists(select e from e in Employees, d in Departments "
      "where e.dno = d.dno)"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutePlan(q.simplified, db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Engine_Materializing_Exists)->Arg(1000)->Arg(8000);

void BM_Engine_Pipelined_GroupBy(benchmark::State& state) {
  workload::CompanyParams p;
  p.n_employees = static_cast<int>(state.range(0));
  Database db = workload::MakeCompanyDatabase(p);
  Optimizer opt(db.schema());
  CompiledQuery q = opt.Compile(ParseOQL(
      "select distinct e.dno, avg(e.salary) from Employees e group by e.dno"));
  PhysPtr phys = PlanPhysical(q.simplified, db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutePipelined(phys, db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Engine_Pipelined_GroupBy)->Arg(1000)->Arg(8000);

void BM_Engine_Materializing_GroupBy(benchmark::State& state) {
  workload::CompanyParams p;
  p.n_employees = static_cast<int>(state.range(0));
  Database db = workload::MakeCompanyDatabase(p);
  Optimizer opt(db.schema());
  CompiledQuery q = opt.Compile(ParseOQL(
      "select distinct e.dno, avg(e.salary) from Employees e group by e.dno"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutePlan(q.simplified, db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Engine_Materializing_GroupBy)->Arg(1000)->Arg(8000);

}  // namespace

BENCHMARK_MAIN();
