// Shared helpers for the benchmark harnesses: wall-clock timing of the three
// evaluation strategies (baseline nested loops, unnested plan with
// nested-loop operators, unnested plan with hash operators) and table
// printing in the style of the paper's experiment reports.

#ifndef LAMBDADB_BENCH_BENCH_COMMON_H_
#define LAMBDADB_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "src/lambdadb.h"
#include "src/runtime/json.h"

namespace ldb::bench {

/// Milliseconds taken by `fn()`, run once (the workloads are sized so a
/// single run is representative; google-benchmark covers the micro side).
template <typename Fn>
double TimeMs(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct StrategyTimes {
  double baseline_ms = 0;    ///< nested-loop interpretation of the calculus
  double unnested_nl_ms = 0; ///< unnested plan, nested-loop operators
  double unnested_hash_ms = 0;  ///< unnested plan, hash operators
  long rows = 0;                ///< result cardinality
  bool results_agree = false;
};

inline long ResultRows(const Value& v);  // defined below

/// Runs `oql` under all three strategies and checks result agreement.
inline StrategyTimes RunStrategies(const Database& db, const std::string& oql) {
  StrategyTimes t;
  Value baseline, nl, hash;
  t.baseline_ms = TimeMs([&] { baseline = RunOQLBaseline(db, oql); });
  OptimizerOptions nl_opts;
  nl_opts.physical.use_hash_joins = false;
  t.unnested_nl_ms = TimeMs([&] { nl = RunOQL(db, oql, nl_opts); });
  t.unnested_hash_ms = TimeMs([&] { hash = RunOQL(db, oql, {}); });
  t.rows = ResultRows(hash);
  t.results_agree = (baseline == nl) && (nl == hash);
  return t;
}

/// Wall time of one full static-verifier pass over `oql` (docs/VERIFIER.md):
/// every calculus and algebra layer plus the slot-plan dataflow check. The
/// query compiles with `verify_plans` off so the number isolates the
/// verifier itself instead of folding it into compile time; each report
/// carries its own internally measured duration and they are summed here.
inline double VerifyMs(const Database& db, const std::string& oql) {
  OptimizerOptions options;
  options.verify_plans = false;
  Optimizer opt(db.schema(), options);
  CompiledQuery q = opt.Compile(ParseOQL(oql));
  std::vector<VerifyReport> reports = VerifyCompiledQuery(q, db.schema());
  reports.push_back(
      VerifySlotPlan(CompileSlotPlan(PlanPhysical(q.simplified, db), db)));
  double ms = 0;
  for (const VerifyReport& r : reports) {
    if (!r.ok()) {
      std::fprintf(stderr, "verify FAILED: %s\n", r.ToString().c_str());
    }
    ms += r.ms;
  }
  return ms;
}

/// The current git commit id, or "unknown" outside a work tree — recorded in
/// the JSON header so archived reports are attributable to a revision.
inline std::string GitCommitId() {
#if defined(__unix__) || defined(__APPLE__)
  FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (!p) return "unknown";
  char buf[64] = {0};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, p);
  ::pclose(p);
  std::string s(buf, n);
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  if (s.size() != 40 ||
      s.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return "unknown";
  }
  return s;
#else
  return "unknown";
#endif
}

/// Current UTC time as ISO 8601 (e.g. "2026-08-05T12:34:56Z").
inline std::string IsoTimestampUtc() {
  std::time_t t = std::time(nullptr);
  std::tm tm{};
#if defined(__unix__) || defined(__APPLE__)
  gmtime_r(&t, &tm);
#else
  tm = *std::gmtime(&t);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// CPUs this process may actually run on (affinity-aware on Linux) — CI and
/// containers often pin benchmarks to fewer cores than the machine has, and
/// thread-scaling numbers are meaningless without recording this.
inline int UsableCpus() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
#endif
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

/// One measurement destined for the machine-readable report.
struct JsonRecord {
  std::string experiment;  ///< e.g. "P-A" or "Figure 1.B"
  std::string query;       ///< the OQL text
  std::string engine;      ///< baseline | unnested-* | slot | slot-parallel
  int scale = 0;
  int threads = 1;
  long rows = 0;           ///< result cardinality (1 for scalar results)
  double ms = 0;           ///< wall time of one execution
  bool agree = true;       ///< result matched the reference for this query
  std::string profile;     ///< raw JSON: ProfileToJson of one profiled run
  std::string compile_trace;  ///< raw JSON: CompileTraceToJson (stage times)

  /// Static-verifier wall time for this query (--verify); < 0 = not measured.
  double verify_ms = -1;
};

/// Collects JsonRecords and writes them as a single JSON document when the
/// benchmark was invoked with `--json <path>`. Records are ignored when no
/// path was given, so call sites never need to check.
class JsonReporter {
 public:
  static JsonReporter& Get() {
    static JsonReporter r;
    return r;
  }

  /// Parses `--json <path>`, `--quick`, `--verify` and `--metrics` out of
  /// argv; returns false on a malformed flag.
  bool ParseArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "--json requires a path argument\n");
          return false;
        }
        path_ = argv[++i];
      } else if (std::string(argv[i]) == "--quick") {
        quick_ = true;
      } else if (std::string(argv[i]) == "--verify") {
        verify_ = true;
      } else if (std::string(argv[i]) == "--metrics") {
        metrics_ = true;
      } else {
        std::fprintf(stderr,
                     "unknown argument '%s' (supported: --json <path>, "
                     "--quick, --verify, --metrics)\n",
                     argv[i]);
        return false;
      }
    }
    return true;
  }

  bool enabled() const { return !path_.empty(); }

  /// `--quick`: benchmarks should use their smallest scales (CI schema
  /// checks, not performance numbers).
  bool quick() const { return quick_; }

  /// `--verify`: run the static verifier over each benchmarked query and
  /// report its wall time (`verify_ms`) alongside the execution numbers.
  bool verify() const { return verify_; }

  /// `--metrics`: run the service metrics probe and embed its registry
  /// snapshot in the report (bench_unnesting).
  bool metrics() const { return metrics_; }

  /// Installs an already-serialized MetricsSnapshot::ToJson document; it is
  /// emitted verbatim as the report's top-level "metrics" field.
  void SetMetricsJson(std::string json) { metrics_json_ = std::move(json); }

  void Add(JsonRecord r) {
    if (enabled()) records_.push_back(std::move(r));
  }

  /// Writes the report; returns false (with a message) on I/O failure.
  bool Write(const std::string& bench_name) {
    if (!enabled()) return true;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path_.c_str());
      return false;
    }
    out << "{\n";
    out << "  \"bench\": " << JsonQuote(bench_name) << ",\n";
    out << "  \"commit\": " << JsonQuote(GitCommitId()) << ",\n";
    out << "  \"timestamp\": " << JsonQuote(IsoTimestampUtc()) << ",\n";
    out << "  \"host_cpus\": " << UsableCpus() << ",\n";
    out << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n";
    if (!metrics_json_.empty()) {
      out << "  \"metrics\": " << metrics_json_ << ",\n";
    }
    out << "  \"results\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      const JsonRecord& r = records_[i];
      out << "    {\"experiment\": " << JsonQuote(r.experiment) << ", "
          << "\"query\": " << JsonQuote(r.query) << ", "
          << "\"engine\": " << JsonQuote(r.engine) << ", "
          << "\"scale\": " << r.scale << ", "
          << "\"threads\": " << r.threads << ", "
          << "\"rows\": " << r.rows << ", "
          << "\"ms\": " << r.ms << ", "
          << "\"ns_per_op\": " << r.ms * 1e6 << ", "
          << "\"agree\": " << (r.agree ? "true" : "false");
      if (r.verify_ms >= 0) out << ", \"verify_ms\": " << r.verify_ms;
      // Profile/trace fields hold already-serialized JSON objects
      // (ProfileToJson / CompileTraceToJson) and nest verbatim.
      if (!r.profile.empty()) out << ", \"profile\": " << r.profile;
      if (!r.compile_trace.empty()) {
        out << ", \"compile_trace\": " << r.compile_trace;
      }
      out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("\nwrote %zu records to %s\n", records_.size(), path_.c_str());
    return static_cast<bool>(out);
  }

 private:
  std::string path_;
  bool quick_ = false;
  bool verify_ = false;
  bool metrics_ = false;
  std::string metrics_json_;
  std::vector<JsonRecord> records_;
};

/// Result cardinality for reporting: collection size, or 1 for scalars.
inline long ResultRows(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kSet:
    case Value::Kind::kBag:
    case Value::Kind::kList:
      return static_cast<long>(v.AsElems().size());
    default:
      return 1;
  }
}

/// Executor timing on one already-unnested query: the slot-frame engine
/// serial and at several thread counts. The plan is compiled once; timings
/// cover execution only.
struct EngineTimes {
  double slot_ms = 0;     ///< slot frames, serial
  std::vector<std::pair<int, double>> parallel_ms;  ///< (threads, ms)
  long rows = 0;
  bool agree = false;     ///< every run produced the identical Value
  std::string profile_json;        ///< per-operator stats of one profiled
                                   ///< serial slot run (ProfileToJson)
  std::string compile_trace_json;  ///< per-stage compile times
                                   ///< (CompileTraceToJson)
};

inline EngineTimes RunEngines(const Database& db, const std::string& oql,
                              std::initializer_list<int> thread_counts = {2, 4,
                                                                          8}) {
  EngineTimes t;
  Optimizer opt(db.schema());
  CompiledQuery cq = opt.Compile(ParseOQL(oql));
  PhysPtr phys = PlanPhysical(cq.simplified, db);

  // Best-of-3: the first execution pays first-touch page faults on the
  // freshly generated extents, which on a shared host can double the
  // reading. The minimum of three runs is the least-noise estimate of the
  // true cost, and every thread count gets the same treatment.
  auto best_of = [](int reps, auto&& body) {
    double best = 0;
    for (int i = 0; i < reps; ++i) {
      double ms = TimeMs(body);
      if (i == 0 || ms < best) best = ms;
    }
    return best;
  };

  SlotPlan slots = CompileSlotPlan(phys, db);
  Value slot_v;
  t.slot_ms = best_of(3, [&] { slot_v = ExecuteSlotPlan(slots, db); });
  t.rows = ResultRows(slot_v);
  t.agree = true;

  for (int n : thread_counts) {
    ExecOptions par;
    par.n_threads = n;
    Value par_v;
    double ms = best_of(3, [&] { par_v = ExecuteSlotPlan(slots, db, par); });
    t.agree = t.agree && (par_v == slot_v);
    t.parallel_ms.emplace_back(n, ms);
  }

  // One extra traced compile + profiled serial slot execution, outside the
  // timed runs, so the JSON report carries per-operator stats and per-stage
  // compile times without perturbing the measurements above.
  OptimizerOptions prof_opts;
  prof_opts.trace = true;
  QueryProfiler prof;
  prof_opts.exec.profiler = &prof;
  Optimizer prof_opt(db.schema(), prof_opts);
  CompiledQuery prof_cq = prof_opt.Compile(ParseOQL(oql));
  Value prof_v = prof_opt.Execute(prof_cq, db);
  t.agree = t.agree && (prof_v == slot_v);
  t.profile_json = ProfileToJson(prof);
  t.compile_trace_json = CompileTraceToJson(*prof_cq.trace);
  return t;
}

inline void PrintEngineRowHeader() {
  std::printf("%-28s %12s", "workload/scale", "slot(ms)");
  for (const char* h : {"par x2", "par x4", "par x8"}) {
    std::printf(" %9s", h);
  }
  std::printf(" %6s\n", "agree");
}

inline void PrintEngineRow(const std::string& label, const EngineTimes& t) {
  std::printf("%-28s %12.2f", label.c_str(), t.slot_ms);
  for (const auto& [n, ms] : t.parallel_ms) {
    (void)n;
    std::printf(" %9.2f", ms);
  }
  std::printf(" %6s\n", t.agree ? "yes" : "NO!");
  std::fflush(stdout);
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

inline void PrintRowHeader() {
  std::printf("%-28s %12s %14s %14s %9s %6s\n", "workload/scale",
              "baseline(ms)", "unnested-NL(ms)", "unnested-hash",
              "speedup", "agree");
}

inline void PrintRow(const std::string& label, const StrategyTimes& t) {
  std::printf("%-28s %12.2f %14.2f %14.2f %8.1fx %6s\n", label.c_str(),
              t.baseline_ms, t.unnested_nl_ms, t.unnested_hash_ms,
              t.unnested_hash_ms > 0 ? t.baseline_ms / t.unnested_hash_ms : 0.0,
              t.results_agree ? "yes" : "NO!");
  std::fflush(stdout);  // rows appear as they complete, even when piped
}

}  // namespace ldb::bench

#endif  // LAMBDADB_BENCH_BENCH_COMMON_H_
