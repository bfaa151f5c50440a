#include "bench/e2e/layers.h"

#include <algorithm>
#include <map>

#include "src/lambdadb.h"
#include "src/workload/travel.h"
#include "src/workload/university.h"

namespace ldb::e2e {

namespace {

// Per-stage repetition budgets: compile stages are microseconds, so they
// repeat up to 50 times; executions stop after ~150 ms of samples.
constexpr double kCompileBudgetUs = 2000;
constexpr int kCompileMaxReps = 50;
constexpr double kExecBudgetUs = 150000;
constexpr int kExecMaxReps = 30;

// Median wall time (us) of `fn`. The first run is recorded as a span; more
// runs follow until `budget_us` of samples or `max_reps` runs.
template <typename Fn>
double StageUs(SpanLog* spans, const char* name, const char* layer,
               double budget_us, int max_reps, Fn&& fn) {
  std::vector<double> samples;
  {
    ScopedSpan s(spans, name, layer);
    samples.push_back(TimeUs(fn));
  }
  double total = samples[0];
  while (static_cast<int>(samples.size()) < max_reps && total < budget_us) {
    samples.push_back(TimeUs(fn));
    total += samples.back();
  }
  return Median(std::move(samples));
}

// The experiments of bench/bench_unnesting.cc at the fixed scales the
// report keeps.
struct PaperRow {
  const char* id;
  const char* oql;
  Database (*make)(int scale, uint64_t seed);
  int scale;
};

Database University(int scale, uint64_t seed) {
  workload::UniversityParams p;
  p.n_students = scale;
  p.n_courses = 24;
  p.seed = seed;
  return workload::MakeUniversityDatabase(p);
}

Database Travel(int scale, uint64_t seed) {
  workload::TravelParams p;
  p.n_cities = std::max(2, scale / 10);
  p.hotels_per_city = 10;
  p.seed = seed;
  return workload::MakeTravelDatabase(p);
}

const PaperRow kPaperRows[] = {
    {"P-N",
     "select distinct h.price from h in (select h from c in Cities, "
     "h in c.hotels where c.name = 'Arlington')",
     Travel, 400},
    {"P-J",
     "select distinct s.name from s in Students "
     "where exists t in Transcripts: t.sid = s.sid",
     University, 800},
    {"P-A", kTypeA, MakeCompany, 2000},
    {"P-JA", kTypeJA, MakeCompany, 2000},
    {"forall",
     "select distinct s.name from s in Students "
     "where for all c in select c from c in Courses where c.title = 'DB': "
     "exists t in Transcripts: t.sid = s.sid and t.cno = c.cno",
     University, 150},
    {"CB", kCountBug, MakeCompany, 2000},
};

}  // namespace

std::vector<Metric> MeasureLayers(const Database& db, const Workload& w,
                                  SpanLog* spans,
                                  std::vector<StatementCost>* costs) {
  const Schema& schema = db.schema();
  // Stage -> summed per-statement medians (us).
  std::map<std::string, double> stage_us;
  double serial_us = 0, parallel_us = 0, profiled_us = 0, text_us = 0;
  uint64_t text_rows = 0, statements = 0;

  for (size_t k : RepresentativeCalls(w)) {
    const Call& call = w.calls[k];
    const std::string& text =
        call.stmt >= 0 ? w.prepared[static_cast<size_t>(call.stmt)] : call.oql;
    std::map<std::string, Value> params;
    if (call.has_param) params["1"] = Value::Int(call.param);
    ScopedSpan root(spans, "statement", "bench");

    auto stage = [&](const char* metric, const char* name, const char* layer,
                     auto&& fn) {
      stage_us[metric] += StageUs(spans, name, layer, kCompileBudgetUs,
                                  kCompileMaxReps, fn);
    };
    oql::NodePtr ast;
    stage("oql.parse_us", "parse", "oql", [&] { ast = oql::Parse(text); });
    oql::OrderedQuery q;
    stage("oql.translate_us", "translate", "oql",
          [&] { q = oql::TranslateWithOrdering(ast); });
    stage("core.typecheck_us", "typecheck", "core",
          [&] { TypeCheck(q.comp, schema); });
    ExprPtr normalized;
    stage("core.normalize_us", "normalize", "core",
          [&] { normalized = Normalize(q.comp); });
    std::string key;
    stage("core.cache_key_us", "cache-key", "core",
          [&] { key = PrintExpr(normalized); });
    AlgPtr plan;
    stage("core.unnest_us", "unnest", "core",
          [&] { plan = UnnestComp(normalized, schema); });
    AlgPtr simplified;
    stage("core.simplify_us", "simplify", "core",
          [&] { simplified = Simplify(plan, schema); });
    stage("core.typecheck_us", "typecheck-plan", "core",
          [&] { TypeCheckPlan(simplified, schema); });
    PhysPtr physical;
    stage("runtime.plan_physical_us", "plan-physical", "runtime",
          [&] { physical = PlanPhysical(simplified, db); });
    SlotPlan slots;
    stage("runtime.slot_compile_us", "slot-compile", "runtime",
          [&] { slots = CompileSlotPlan(physical, db); });
    stage("verify.slot_plan_us", "verify-slot-plan", "verify",
          [&] { VerifySlotPlan(slots).ThrowIfFailed(); });

    ExecOptions serial;
    serial.params = &params;
    ExecOptions parallel = serial;
    parallel.n_threads = 4;
    Value result;
    const double s_us = StageUs(
        spans, "execute", "runtime", kExecBudgetUs, kExecMaxReps,
        [&] { result = ExecuteSlotPlan(slots, db, serial); });
    const double p_us = StageUs(
        spans, "execute-parallel", "runtime", kExecBudgetUs, kExecMaxReps,
        [&] { ExecuteSlotPlan(slots, db, parallel); });
    const double prof_us = StageUs(
        spans, "execute-profiled", "obs", kExecBudgetUs, kExecMaxReps, [&] {
          QueryProfiler prof;
          ExecOptions profiled = serial;
          profiled.profiler = &prof;
          ExecuteSlotPlan(slots, db, profiled);
        });
    const std::vector<Value> rows =
        result.is_collection() ? result.AsElems() : std::vector<Value>{result};
    text_us += StageUs(spans, "result-text", "net", kExecBudgetUs, 5, [&] {
      for (const Value& r : rows) ValueToText(r);
    });
    text_rows += rows.size();
    serial_us += s_us;
    parallel_us += p_us;
    profiled_us += prof_us;
    ++statements;
    costs->push_back(StatementCost{
        call.stmt >= 0 ? "stmt" + std::to_string(call.stmt)
                       : "adhoc" + std::to_string(k),
        s_us / 1e3, p_us / 1e3, rows.size()});
  }

  std::vector<Metric> out;
  const double n = static_cast<double>(std::max<uint64_t>(1, statements));
  for (const auto& [name, us] : stage_us)
    out.push_back(Metric{name, us / n, "us", statements});
  out.push_back(Metric{"runtime.exec_us", serial_us / n, "us", statements});
  out.push_back(Metric{"runtime.parallel_speedup",
                       parallel_us > 0 ? serial_us / parallel_us : 0, "ratio",
                       statements});
  out.push_back(Metric{"runtime.result_text_us_per_row",
                       text_rows > 0 ? text_us / static_cast<double>(text_rows)
                                     : 0,
                       "us/row", text_rows});
  out.push_back(Metric{"obs.profiler_ratio",
                       serial_us > 0 ? profiled_us / serial_us : 0, "ratio",
                       statements});
  return out;
}

std::vector<Metric> MeasurePaperRows(bool* agree) {
  std::vector<Metric> out;
  for (const PaperRow& row : kPaperRows) {
    Database db = row.make(row.scale, kDataSeed);
    Value baseline, unnested;
    const double base_us =
        StageUs(nullptr, "baseline", "core", 50000, 5,
                [&] { baseline = RunOQLBaseline(db, row.oql); });
    const double hash_us = StageUs(nullptr, "unnested", "core", 50000, 50,
                                   [&] { unnested = RunOQL(db, row.oql); });
    const bool same = baseline == unnested;
    *agree = *agree && same;
    if (!same) std::fprintf(stderr, "ldb_bench: %s results differ\n", row.id);
    out.push_back(Metric{std::string("core.unnest_speedup.") + row.id,
                         hash_us > 0 ? base_us / hash_us : 0, "ratio", 1});
  }
  return out;
}

}  // namespace ldb::e2e
