// oqlsh — an interactive OQL shell over the synthetic workloads.
//
//   $ ./examples/oqlsh [company|university|travel] [scale]
//
// Commands:
//   .help                this text
//   .schema              list classes, extents, attributes
//   .plan <oql>          show calculus, normalized form, and algebra plans
//   .explain <oql>       EXPLAIN ANALYZE: execute with profiling and print
//                        the annotated plan (est vs measured rows, times)
//                        plus the compile trace
//   .profile <oql>       same, but emit the profile and trace as JSON
//   .verify <oql>        run the static verifier over every IR the compiler
//                        produces (docs/VERIFIER.md) and report per-stage
//                        checks, findings, and wall time
//   .baseline <oql>      evaluate with the nested-loop baseline
//   .time <oql>          compare baseline vs unnested timings
//   .prepare <name> <oql> register a (possibly parameterized) statement
//   .exec <name> [args]  run a prepared statement; args bind $1, $2, ...;
//                        the first run binds its plan, later runs reuse it
//   .timeout <ms>        per-query deadline for this session (0 = none)
//   .cache [clear]       plan-cache counters / drop all cached plans
//   .metrics             dump the service metrics (Prometheus text format)
//   .querylog [n]        last n query-log records (default 10); slow queries
//                        additionally print their captured plan
//   .trace <file> <oql>  execute as a force-sampled (so profiled) request and
//                        write its Chrome/Perfetto trace (load via
//                        ui.perfetto.dev or chrome://tracing)
//   .connect host:port   attach to an ldb_server; ad-hoc queries, .prepare,
//                        and .exec then go over the wire (docs/WIRE.md).
//                        .metrics then reads the SERVER registry (INTROSPECT)
//   .stats               remote only: server active queries + query-log tail
//                        fetched over INTROSPECT
//   .fetch-trace [id] [file]  remote only: fetch a server-side trace from the
//                        query log's trace ring as Perfetto JSON. `id` is
//                        16-hex (default: the last executed query's trace id;
//                        "slowest" = the slowest kept trace). Prints to the
//                        terminal unless a file is given
//   .disconnect          drop the server connection, back to in-process
//   .quit                exit
//   <oql>                execute through the query service + print
//
// Reads one query per line (no multi-line continuation). Ad-hoc queries and
// prepared statements both run through a QueryService, so repeated ad-hoc
// queries hit the plan cache, prepared ones keep their bound plan, and
// `.timeout` applies to everything — including remote execution, where it
// is sent as the per-request deadline.

#include <chrono>
#include <cstdio>
#include <functional>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "src/lambdadb.h"
#include "src/net/client.h"
#include "src/workload/company.h"
#include "src/workload/travel.h"
#include "src/workload/university.h"

namespace {

using namespace ldb;

Database MakeDb(const std::string& which, int scale) {
  if (which == "university") {
    workload::UniversityParams p;
    p.n_students = scale;
    return workload::MakeUniversityDatabase(p);
  }
  if (which == "travel") {
    workload::TravelParams p;
    p.n_cities = std::max(2, scale / 10);
    return workload::MakeTravelDatabase(p);
  }
  workload::CompanyParams p;
  p.n_employees = scale;
  p.n_departments = std::max(4, scale / 40);
  return workload::MakeCompanyDatabase(p);
}

void ShowSchema(const Schema& schema) {
  for (const auto& [name, decl] : schema.classes()) {
    std::printf("class %s", name.c_str());
    if (!decl.extent.empty()) std::printf(" (extent %s)", decl.extent.c_str());
    std::printf(" {\n");
    for (const auto& [attr, type] : decl.attributes) {
      std::printf("  %s: %s\n", attr.c_str(), type->ToString().c_str());
    }
    std::printf("}\n");
  }
}

void ShowPlan(const Database& db, const std::string& oql) {
  ExprPtr calculus = ParseOQL(oql);
  std::printf("calculus:   %s\n", PrintExpr(calculus).c_str());
  std::printf("normalized: %s\n", PrintExpr(Normalize(calculus)).c_str());
  OptimizerOptions options;
  options.trace = true;  // records the derivation
  Optimizer opt(db.schema(), options);
  CompiledQuery q = opt.Compile(calculus);
  std::printf("derivation (Figure 7 rules):\n");
  for (const UnnestStep& s : q.trace->unnest_steps) {
    std::printf("  (%s) %s\n", s.rule.c_str(), s.description.c_str());
  }
  std::printf("algebra plan:\n%s", PrintPlan(q.plan).c_str());
  if (!AlgEqual(q.plan, q.simplified)) {
    std::printf("simplified:\n%s", PrintPlan(q.simplified).c_str());
  }
  std::printf("physical:\n%s",
              PrintPhysicalPlan(PlanPhysical(q.simplified, db)).c_str());
  std::printf("result type: %s\n", q.result_type->ToString().c_str());
}

void PrintResult(const Value& v);

// Compiles with tracing, executes with a profiler attached, and prints
// either the human-readable EXPLAIN ANALYZE (with catalog estimates) or the
// JSON profile + compile trace.
void ExplainQuery(const Database& db, const std::string& oql, bool as_json) {
  OptimizerOptions options;
  options.trace = true;
  options.verify_plans = true;  // the trace then carries the verify stages
  Optimizer opt(db.schema(), options);
  CompiledQuery q = opt.Compile(ParseOQL(oql));
  PhysPtr phys = PlanPhysical(q.simplified, db, options.physical);
  QueryProfiler prof;
  ExecOptions exec;
  exec.profiler = &prof;
  Value result = ExecutePipelined(phys, db, exec);
  if (as_json) {
    std::printf("%s\n%s\n", ProfileToJson(prof).c_str(),
                CompileTraceToJson(*q.trace).c_str());
    return;
  }
  std::printf("%s", PrintCompileTrace(*q.trace).c_str());
  Catalog cat = Catalog::FromDatabase(db);
  std::printf("%s", ExplainAnalyze(phys, prof, &cat).c_str());
  PrintResult(result);
}

// `.verify`: compiles the query with verification off, then runs every
// verifier layer explicitly — including the slot plan — and prints each
// stage's summary plus any findings, instead of stopping at the first
// VerifyError the pipeline would throw.
void VerifyQuery(const Database& db, const std::string& oql) {
  OptimizerOptions options;
  options.verify_plans = false;  // run the layers by hand below
  Optimizer opt(db.schema(), options);
  CompiledQuery q = opt.Compile(ParseOQL(oql));
  std::vector<VerifyReport> reports = VerifyCompiledQuery(q, db.schema());
  SlotPlan slots = CompileSlotPlan(PlanPhysical(q.simplified, db), db);
  reports.push_back(VerifySlotPlan(slots));
  bool all_ok = true;
  double total_ms = 0;
  for (const VerifyReport& r : reports) {
    std::printf("%s\n", r.ToString().c_str());
    for (const VerifyFinding& f : r.findings) {
      std::printf("  %s\n", f.ToString().c_str());
    }
    all_ok = all_ok && r.ok();
    total_ms += r.ms;
  }
  std::printf("verdict: %s (%.3f ms)\n", all_ok ? "ok" : "FAILED", total_ms);
}

void PrintPhases(const obs::QueryLogRecord& rec) {
  std::printf("(%s plan | queue %.2f ms | compile %.2f ms | exec %.2f ms)\n",
              rec.plan_cached ? "cached" : "compiled", rec.queue_ms,
              rec.compile_ms, rec.exec_ms);
}

double MsOf(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// `.trace`: runs the query through the service as a force-sampled request
// (so it is profiled) and writes its record's span tree as Chrome
// trace-event JSON — the span model of every served trace: phases, compile
// stages on a plan-cache miss, morsels on one lane per worker, one lane per
// operator. Load in ui.perfetto.dev or chrome://tracing.
void TraceQuery(QueryService& service, Session& session,
                const std::string& file, const std::string& oql) {
  std::ofstream out(file);
  if (!out) {
    std::printf("error: cannot write '%s'\n", file.c_str());
    return;
  }
  obs::QueryLogRecord rec;
  rec.force_sample = true;
  QueryProfiler prof;
  Value result = service.Execute(session, oql, &rec, &prof);
  out << obs::TraceToChromeJson(rec);
  std::printf("wrote %s (%zu spans, %zu operators, %zu morsels)\n",
              file.c_str(), rec.spans.size(), prof.Operators().size(),
              prof.run.morsels.size());
  PrintResult(result);
  PrintPhases(rec);
}

void ShowActiveQueries(const QueryService& service) {
  std::vector<obs::ActiveQueryInfo> active = service.ActiveQueries();
  if (active.empty()) {
    std::printf("(no active queries)\n");
    return;
  }
  for (const obs::ActiveQueryInfo& q : active) {
    std::printf(
        "#%llu session=%llu %s elapsed=%.2fms rows=%llu "
        "mem=%lluB peak=%lluB hash=%016llx\n",
        static_cast<unsigned long long>(q.query_id),
        static_cast<unsigned long long>(q.session), q.phase.c_str(),
        q.elapsed_ms, static_cast<unsigned long long>(q.rows),
        static_cast<unsigned long long>(q.mem_in_use_bytes),
        static_cast<unsigned long long>(q.mem_peak_bytes),
        static_cast<unsigned long long>(q.query_hash));
  }
}

void ShowQueryLog(const ldb::obs::QueryLog& log, size_t n) {
  std::vector<obs::QueryLogRecord> tail = log.Tail(n);
  if (tail.empty()) {
    std::printf("(query log empty)\n");
    return;
  }
  for (const obs::QueryLogRecord& rec : tail) {
    std::printf("%s\n", rec.ToString().c_str());
    if (rec.slow && !rec.plan_text.empty()) {
      std::printf("  -- slow-query plan --\n%s", rec.plan_text.c_str());
    }
  }
  std::printf("(%llu appended, %llu slow, %llu dropped by the ring)\n",
              static_cast<unsigned long long>(log.appended()),
              static_cast<unsigned long long>(log.slow_count()),
              static_cast<unsigned long long>(log.dropped()));
}

// `.exec` argument literals: "quoted" -> string, integer -> int,
// decimal -> real, anything else -> string.
Value ParseArgValue(const std::string& tok) {
  if (tok.size() >= 2 && tok.front() == '"' && tok.back() == '"') {
    return Value::Str(tok.substr(1, tok.size() - 2));
  }
  try {
    size_t pos = 0;
    long long i = std::stoll(tok, &pos);
    if (pos == tok.size()) return Value::Int(i);
  } catch (...) {
  }
  try {
    size_t pos = 0;
    double d = std::stod(tok, &pos);
    if (pos == tok.size()) return Value::Real(d);
  } catch (...) {
  }
  return Value::Str(tok);
}

void PrintResult(const Value& v) {
  if (v.is_collection() && v.AsElems().size() > 20) {
    size_t i = 0;
    for (const Value& row : v.AsElems()) {
      if (i++ == 20) break;
      std::printf("  %s\n", row.ToString().c_str());
    }
    std::printf("  ... (%zu rows)\n", v.AsElems().size());
  } else {
    std::printf("  %s\n", v.ToString().c_str());
  }
}

void PrintRemoteResult(const net::ClientResult& r) {
  if (r.scalar() && r.rows.size() == 1) {
    std::printf("  %s\n", r.rows[0].ToString().c_str());
  } else {
    size_t shown = 0;
    for (const Value& row : r.rows) {
      if (shown++ == 20) break;
      std::printf("  %s\n", row.ToString().c_str());
    }
    if (r.rows.size() > 20) std::printf("  ... (%zu rows)\n", r.rows.size());
  }
  std::printf("(%s plan | wait %.2f ms | queue %.2f ms | compile %.2f ms | "
              "exec %.2f ms | serialize %.2f ms | trace %s | remote)\n",
              r.exec.plan_cached ? "cached" : "compiled", r.exec.queue_wait_ms,
              r.exec.queue_ms, r.exec.compile_ms, r.exec.exec_ms,
              r.exec.serialize_ms, obs::TraceIdHex(r.exec.trace_id).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string which = argc > 1 ? argv[1] : "company";
  int scale = argc > 2 ? std::atoi(argv[2]) : 500;
  Database db = MakeDb(which, scale);
  std::printf("oqlsh: %s database at scale %d (%zu objects). Type .help\n",
              which.c_str(), scale, db.ObjectCount());

  QueryService service(db);
  std::shared_ptr<Session> session = service.OpenSession();

  // `.connect` state: while attached, ad-hoc queries, .prepare, and .exec go
  // through the wire protocol instead of the in-process service.
  net::Client remote;
  std::map<std::string, uint64_t> remote_prepared;
  std::map<std::string, Statement> prepared;  // in-process handles
  auto remote_deadline = [&session] {
    return static_cast<uint64_t>(session->options().deadline_ms);
  };

  std::string line;
  while (std::printf("oql> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    try {
      if (line == ".quit" || line == ".exit") break;
      if (line == ".help") {
        std::printf(".schema | .plan <oql> | .explain <oql> | .profile <oql> "
                    "| .verify <oql> | .baseline <oql> | .time <oql> "
                    "| .prepare <name> <oql> | .exec <name> [args] "
                    "| .timeout <ms> | .budget <bytes> | .cache [clear] "
                    "| .metrics | .querylog [n] | .queries "
                    "| .trace <file> <oql> | .connect host:port "
                    "| .stats | .fetch-trace [id] [file] "
                    "| .disconnect | .quit | <oql>\n"
                    "(.explain prints the profiled plan inline; .trace writes "
                    "a served execution's spans as a Perfetto timeline; while "
                    ".connect'ed, .metrics/.stats/.fetch-trace read the "
                    "server over INTROSPECT)\n");
      } else if (line == ".schema") {
        ShowSchema(db.schema());
      } else if (line.rfind(".plan ", 0) == 0) {
        ShowPlan(db, line.substr(6));
      } else if (line.rfind(".explain ", 0) == 0) {
        ExplainQuery(db, line.substr(9), /*as_json=*/false);
      } else if (line.rfind(".profile ", 0) == 0) {
        ExplainQuery(db, line.substr(9), /*as_json=*/true);
      } else if (line.rfind(".verify ", 0) == 0) {
        VerifyQuery(db, line.substr(8));
      } else if (line.rfind(".baseline ", 0) == 0) {
        PrintResult(RunOQLBaseline(db, line.substr(10)));
      } else if (line.rfind(".time ", 0) == 0) {
        std::string oql = line.substr(6);
        Value opt_result, base_result;
        double opt_ms = MsOf([&] { opt_result = RunOQL(db, oql); });
        double base_ms = MsOf([&] { base_result = RunOQLBaseline(db, oql); });
        std::printf("unnested: %.2f ms | baseline: %.2f ms | agree: %s\n",
                    opt_ms, base_ms, opt_result == base_result ? "yes" : "NO");
      } else if (line.rfind(".prepare ", 0) == 0) {
        std::istringstream in(line.substr(9));
        std::string name;
        in >> name;
        std::string oql;
        std::getline(in, oql);
        size_t start = oql.find_first_not_of(' ');
        if (name.empty() || start == std::string::npos) {
          std::printf("usage: .prepare <name> <oql>\n");
        } else if (remote.connected()) {
          remote_prepared[name] = remote.Prepare(oql.substr(start));
          std::printf("prepared '%s' (remote handle %llu)\n", name.c_str(),
                      static_cast<unsigned long long>(remote_prepared[name]));
        } else {
          prepared[name] = QueryService::Prepare(oql.substr(start));
          std::printf("prepared '%s'\n", name.c_str());
        }
      } else if (line.rfind(".exec ", 0) == 0) {
        std::istringstream in(line.substr(6));
        std::string name;
        in >> name;
        std::vector<std::pair<std::string, Value>> args;
        std::string tok;
        int idx = 1;
        while (in >> tok) {
          args.emplace_back(std::to_string(idx++), ParseArgValue(tok));
        }
        if (remote.connected()) {
          auto it = remote_prepared.find(name);
          if (it == remote_prepared.end()) {
            std::printf("error: no remote prepared statement '%s'\n",
                        name.c_str());
          } else {
            remote.Bind(args);
            PrintRemoteResult(
                remote.ExecutePrepared(it->second, remote_deadline()));
          }
        } else if (auto it = prepared.find(name); it == prepared.end()) {
          std::printf("error: no prepared statement '%s'\n", name.c_str());
        } else {
          session->ClearBindings();
          for (const auto& [pname, pval] : args) session->Bind(pname, pval);
          obs::QueryLogRecord rec;
          PrintResult(service.Execute(*session, it->second, &rec));
          PrintPhases(rec);
        }
      } else if (line.rfind(".timeout ", 0) == 0) {
        session->options().deadline_ms = std::atoll(line.substr(9).c_str());
        std::printf("per-query deadline: %lld ms\n",
                    static_cast<long long>(session->options().deadline_ms));
      } else if (line.rfind(".budget ", 0) == 0) {
        session->options().memory_budget_bytes =
            std::strtoull(line.c_str() + 8, nullptr, 10);
        std::printf("per-query memory budget: %llu bytes%s\n",
                    static_cast<unsigned long long>(
                        session->options().memory_budget_bytes),
                    session->options().memory_budget_bytes == 0
                        ? " (unlimited)"
                        : "");
      } else if (line == ".queries") {
        ShowActiveQueries(service);
      } else if (line == ".cache") {
        PlanCacheStats cs = service.cache_stats();
        std::printf(
            "plan cache: %zu/%zu entries | %llu hits | %llu misses | "
            "%llu evictions\n",
            cs.entries, cs.capacity, static_cast<unsigned long long>(cs.hits),
            static_cast<unsigned long long>(cs.misses),
            static_cast<unsigned long long>(cs.evictions));
      } else if (line == ".cache clear") {
        service.ClearCache();
        std::printf("plan cache cleared\n");
      } else if (line == ".metrics") {
        if (remote.connected()) {
          std::printf("%s\n",
                      remote.Introspect(net::IntrospectRequest::kMetrics)
                          .c_str());
        } else {
          std::printf("%s",
                      service.metrics().Snapshot().ToPrometheusText().c_str());
        }
      } else if (line == ".stats") {
        if (!remote.connected()) {
          std::printf("not connected (.stats reads the server over "
                      "INTROSPECT; use .queries/.querylog in-process)\n");
        } else {
          std::printf(
              "-- server active queries --\n%s\n"
              "-- server query log (last 10) --\n%s\n",
              remote.Introspect(net::IntrospectRequest::kActiveQueries)
                  .c_str(),
              remote.Introspect(net::IntrospectRequest::kQueryLog, 10)
                  .c_str());
        }
      } else if (line == ".fetch-trace" ||
                 line.rfind(".fetch-trace ", 0) == 0) {
        if (!remote.connected()) {
          std::printf("not connected (.fetch-trace reads the server's trace "
                      "ring over INTROSPECT)\n");
        } else {
          std::istringstream in(
              line.size() > 12 ? line.substr(13) : std::string());
          std::string id_tok, file;
          in >> id_tok >> file;
          uint64_t id = remote.last_trace_id();
          if (id_tok == "slowest") {
            id = 0;  // the server resolves 0 to its slowest kept trace
          } else if (!id_tok.empty()) {
            id = obs::TraceIdFromHex(id_tok);
            if (id == 0) {
              std::printf("usage: .fetch-trace [16-hex-id|slowest] [file]\n");
              continue;
            }
          }
          std::string json =
              remote.Introspect(net::IntrospectRequest::kTrace, 0, id);
          if (file.empty()) {
            std::printf("%s\n", json.c_str());
          } else {
            std::ofstream out(file);
            if (!out) {
              std::printf("error: cannot write '%s'\n", file.c_str());
            } else {
              out << json;
              std::printf("wrote %s (load via ui.perfetto.dev)\n",
                          file.c_str());
            }
          }
        }
      } else if (line == ".querylog" || line.rfind(".querylog ", 0) == 0) {
        size_t n = 10;
        if (line.size() > 10) n = std::strtoull(line.c_str() + 10, nullptr, 10);
        ShowQueryLog(service.query_log(), n == 0 ? 10 : n);
      } else if (line.rfind(".connect ", 0) == 0) {
        std::string target = line.substr(9);
        size_t colon = target.rfind(':');
        if (remote.connected()) {
          std::printf("already connected; .disconnect first\n");
        } else if (colon == std::string::npos || colon == 0 ||
                   colon + 1 == target.size()) {
          std::printf("usage: .connect host:port\n");
        } else {
          net::HelloRequest hello;
          remote.Connect(target.substr(0, colon),
                         static_cast<uint16_t>(
                             std::atoi(target.c_str() + colon + 1)),
                         hello);
          remote_prepared.clear();
          std::printf("connected: %s (session %llu, wire v%u)\n",
                      remote.hello().server_info.c_str(),
                      static_cast<unsigned long long>(remote.session_id()),
                      remote.hello().version);
        }
      } else if (line == ".disconnect") {
        if (!remote.connected()) {
          std::printf("not connected\n");
        } else {
          remote.Close();
          remote_prepared.clear();
          std::printf("disconnected\n");
        }
      } else if (line.rfind(".trace ", 0) == 0) {
        std::istringstream in(line.substr(7));
        std::string file;
        in >> file;
        std::string oql;
        std::getline(in, oql);
        size_t start = oql.find_first_not_of(' ');
        if (file.empty() || start == std::string::npos) {
          std::printf("usage: .trace <file> <oql>\n");
        } else {
          TraceQuery(service, *session, file, oql.substr(start));
        }
      } else if (remote.connected()) {
        PrintRemoteResult(remote.Execute(line, remote_deadline()));
      } else {
        obs::QueryLogRecord rec;
        PrintResult(service.Execute(*session, line, &rec));
        PrintPhases(rec);
      }
    } catch (const Error& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  return 0;
}
