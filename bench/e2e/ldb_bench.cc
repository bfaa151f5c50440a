// ldb_bench — the repository's end-to-end benchmark (bench/e2e/README.md).
//
//   $ build-bench/ldb_bench [--workload lookup|nested|adhoc|analytic|all]
//         [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
//         [--server-bin PATH] [--out DIR] [--json FILE]
//
// For each workload: generate the Company dataset, dump it (declaring the
// index on Employees.dno), compute reference results in-process from the
// dump, then, in each of kRounds rounds, start the real ldb_server on it
// (setup_s) and drive it over wire v2 with client tracing off, checking
// every reply. Prints "<workload> <metric> <value> <unit> n=<samples>"
// lines, writes a JSON results file stamped with commit and host, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}.
//
// --trace 1 reports the per-layer metrics instead: the benchmark records
// its own spans around every call into a layer, writes a Chrome trace per
// workload plus a self-time table, and adds in-process layer probes,
// observer-cost rows and, once per invocation, the paper's
// baseline-vs-unnested rows. --repeat N runs each workload N times on the
// same seed. Exit status: 0 ok, 1 a wrong result, 2 bad usage, 3 the run
// failed.

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/bench_util.h"
#include "bench/e2e/layers.h"
#include "bench/e2e/load.h"
#include "bench/e2e/server_process.h"
#include "bench/e2e/spans.h"
#include "bench/e2e/workloads.h"
#include "src/lambdadb.h"

#ifndef LDB_BENCH_BUILD_TYPE
#define LDB_BENCH_BUILD_TYPE "unknown"
#endif

namespace ldb::e2e {
namespace {

namespace fs = std::filesystem;

// A run spreads its --seconds over this many ldb_server processes, each
// started afresh on the dump. One process's speed is a draw: the same
// binary on the same data runs type-JA in-process in about 12 or about
// 20 ms depending on the process, also when pinned to one CPU and with
// address-space randomization off. A run on one server would report
// whichever speed it drew; a run over several reports their mix. setup_s
// is the median of these starts.
constexpr int kRounds = 10;
// Share of each round spent in the open-loop phase of a serving workload;
// the rest is the closed-loop capacity phase.
constexpr double kOpenShare = 0.6;
// Length of the traced run's observer-cost phase.
constexpr double kObserverCostSeconds = 2.0;
// Requests whose spans go into the Chrome trace file.
constexpr uint64_t kTraceRequests = 2000;
// A run whose generator overslept its schedule more than this at p99 is
// flagged invalid: its open-loop latencies include the benchmark's lag.
constexpr double kMaxGenLagUs = 1000;

struct Options {
  std::vector<std::string> workloads = WorkloadNames();
  uint64_t seed = 1;
  double seconds = 20;  ///< as run_seconds in BENCHMARK.json
  bool traced = false;
  int repeat = 1;
  std::string server_bin;  ///< empty = the ldb_server built with ldb_bench
  std::string out_dir;
  std::string json_file;
};

struct RunResult {
  std::string workload;
  uint64_t seed = 0;
  bool correct = true;
  bool valid = true;  ///< generator lag within kMaxGenLagUs
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< the contract metrics
  std::vector<Metric> per_layer;   ///< traced runs only
  std::vector<Metric> info;        ///< printed and kept, not gated
  std::string layer_table_json;
  std::vector<StatementCost> statements;
};

std::string ExeDir() {
  std::error_code ec;
  fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(".") : exe.parent_path().string();
}

std::string Popen(const char* cmd) {
  FILE* p = ::popen(cmd, "r");
  if (p == nullptr) return "";
  char buf[256] = {0};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, p);
  ::pclose(p);
  std::string s(buf, n);
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

int UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string UtcNow() {
  std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

// ---------------------------------------------------------------------------
// One run of one workload.

struct Tally {
  uint64_t attempted = 0, failed = 0, wrong = 0, ok = 0, hashed = 0;
  void Add(const std::vector<Outcome>& outs) {
    for (const Outcome& o : outs) {
      ++attempted;
      if (o.kind == Outcome::kOk) {
        ++ok;
        hashed += o.hashed ? 1 : 0;
      } else {
        ++failed;
        wrong += o.kind == Outcome::kWrong ? 1 : 0;
      }
    }
  }
};

// The latencies p50/p90/p99 summarize, ascending: the open-loop requests, or
// for a closed-loop rotating workload (analytic) whole rotations — every
// call once, in order, back to back on one server.
std::vector<double> LatencySamples(const Workload& w,
                                   const std::vector<Outcome>& open,
                                   const std::vector<Outcome>& capacity) {
  std::vector<double> out;
  if (w.rate > 0) {
    for (const Outcome& o : open) {
      if (o.kind == Outcome::kOk) out.push_back(o.latency_ms);
    }
  } else {
    // Each round's rotation restarts at call 0, and its last rotation may
    // be cut short; only complete ones count.
    const size_t n = w.calls.size();
    for (size_t r = 0; r + n <= capacity.size(); ++r) {
      bool ok = true;
      for (size_t k = r; k < r + n; ++k) {
        ok = ok && capacity[k].kind == Outcome::kOk &&
             capacity[k].call == k - r;
      }
      if (ok)
        out.push_back(static_cast<double>(capacity[r + n - 1].done_ns -
                                          capacity[r].send_ns) /
                      1e6);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The per-layer numbers the wire exchange itself yields (traced runs).
void WireLayerMetrics(const std::vector<Outcome>& outs,
                      std::vector<Metric>* m) {
  std::vector<double> overhead_us, queue_wait, serialize, trips, decode,
      admission, front_end, compile, exec;
  uint64_t bytes = 0, rows = 0;
  for (const Outcome& o : outs) {
    if (o.kind != Outcome::kOk) continue;
    const net::ExecReply& e = o.exec;
    const double server_ms = e.queue_wait_ms + e.queue_ms + e.compile_ms +
                             e.exec_ms + e.serialize_ms;
    overhead_us.push_back(1e3 * (o.execute_ms - server_ms));
    queue_wait.push_back(1e3 * e.queue_wait_ms);
    serialize.push_back(1e3 * e.serialize_ms);
    trips.push_back(o.row_frames);
    decode.push_back(o.decode_us);
    admission.push_back(1e3 * e.queue_ms);
    (e.plan_cached ? front_end : compile).push_back(1e3 * e.compile_ms);
    exec.push_back(1e3 * e.exec_ms);
    bytes += o.row_bytes;
    rows += e.rows;
  }
  const uint64_t n = overhead_us.size();
  m->push_back({"net.rtt_overhead_us", Median(overhead_us), "us", n});
  m->push_back({"net.queue_wait_us", Mean(queue_wait), "us", n});
  m->push_back({"net.serialize_us", Mean(serialize), "us", n});
  m->push_back({"net.fetch_trips", Mean(trips), "count", n});
  m->push_back(
      {"net.bytes_per_row",
       rows > 0 ? static_cast<double>(bytes) / static_cast<double>(rows) : 0,
       "B/row", rows});
  m->push_back({"net.client_decode_us", Mean(decode), "us", n});
  m->push_back({"service.admission_us", Mean(admission), "us", n});
  m->push_back({"service.front_end_us", Mean(front_end), "us",
                front_end.size()});
  m->push_back({"service.compile_us", Mean(compile), "us", compile.size()});
  m->push_back({"service.exec_us", Mean(exec), "us", n});
  m->push_back({"service.cache_hit_ratio",
                n > 0 ? static_cast<double>(front_end.size()) /
                            static_cast<double>(n)
                      : 0,
                "ratio", n});
}

// Everything one run measures, before it becomes metrics.
struct RunData {
  Workload w;
  double load_s = 0;   ///< in-process LoadDatabase of the dump
  double index_s = 0;  ///< in-process RebuildIndexes
  std::vector<double> startup_s;  ///< one per server
  std::vector<double> rss_mb;     ///< one per server
  std::vector<Outcome> warmup, open, capacity;  ///< all rounds, in order
  uint64_t unsent = 0;
  double capacity_s = 0;  ///< summed over the rounds
  double lag_p99_us = 0;  ///< see LagP99
  ObserverCost observer;
};

// Generates the dataset, writes it to `dump` and loads it back: the
// reference results come from exactly what the server will load.
Database PrepareDump(const std::string& dump, RunData* d) {
  {
    std::ofstream out(dump);
    DumpDatabase(MakeWorkloadDatabase(d->w), out);
    if (!out) throw Error("cannot write " + dump);
  }
  Clock::time_point t0 = Clock::now();
  std::ifstream in(dump);
  Database db = LoadDatabase(in);
  Clock::time_point t1 = Clock::now();
  RebuildIndexes(db);
  Clock::time_point t2 = Clock::now();
  d->load_s = SecondsBetween(t0, t1);
  d->index_s = SecondsBetween(t1, t2);
  ComputeOracle(db, &d->w);
  std::fprintf(stderr, "ldb_bench: %s: %zu reference results in %.2f s\n",
               d->w.name.c_str(), d->w.calls.size(),
               SecondsBetween(t2, Clock::now()));
  return db;
}

void Append(std::vector<Outcome>* to, const std::vector<Outcome>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

// p99 generator lag: open-loop oversleep, or the closed-loop gap between a
// reply and the next send.
double LagP99(const RunData& d) {
  std::vector<double> lag;
  for (const Outcome& o : d.w.rate > 0 ? d.open : d.capacity)
    lag.push_back(o.lag_us);
  std::sort(lag.begin(), lag.end());
  return Percentile(lag, 0.99);
}

// Median latency per statement or ad-hoc template, in label order, over the
// open-loop requests (analytic: the closed-loop calls; scan_ms, join_ms,
// group_ms for P-SCAN, P-DEEP, P-A).
std::vector<Metric> StatementMedians(const RunData& d) {
  std::vector<Metric> out;
  for (size_t g = 0; g < d.w.labels.size(); ++g) {
    std::vector<double> v;
    for (const Outcome& o : d.w.rate > 0 ? d.open : d.capacity) {
      if (o.kind == Outcome::kOk &&
          d.w.calls[o.call].group == static_cast<int>(g))
        v.push_back(o.latency_ms);
    }
    out.push_back({d.w.labels[g] + "_ms", Median(v), "ms", v.size()});
  }
  return out;
}

std::vector<Metric> EndToEndMetrics(const RunData& d) {
  uint64_t capacity_ok = 0;
  for (const Outcome& o : d.capacity) capacity_ok += o.kind == Outcome::kOk;
  // The statements' medians, averaged with equal weight (the calls draw
  // them in equal shares). The median of the pooled requests is a poorer
  // summary of a mix: nested's four statements form four latency bands,
  // and its p50 falls on the edge between two of them.
  double stmt_sum = 0;
  uint64_t stmt_n = 0;
  const std::vector<Metric> stmts = StatementMedians(d);
  for (const Metric& m : stmts) {
    stmt_sum += m.value;
    stmt_n += m.samples;
  }
  return {
      {"setup_s", Median(d.startup_s), "s", d.startup_s.size()},
      {"stmt_p50_ms", stmt_sum / static_cast<double>(stmts.size()), "ms",
       stmt_n},
      {"qps",
       d.capacity_s > 0 ? static_cast<double>(capacity_ok) / d.capacity_s : 0,
       "1/s", capacity_ok},
      {"rss_mb", Median(d.rss_mb), "MB", d.rss_mb.size()},
  };
}

// Printed and kept in the results file, but not part of the gated set.
// `lat`: LatencySamples of the run.
std::vector<Metric> InfoMetrics(const RunData& d,
                                const std::vector<double>& lat,
                                const RunResult& res, const Tally& tally) {
  std::vector<Metric> info = {
      {"fail_frac",
       res.attempted > 0 ? static_cast<double>(res.failed) /
                               static_cast<double>(res.attempted)
                         : 0,
       "ratio", res.attempted},
      {"wrong_results", static_cast<double>(tally.wrong), "count", tally.ok},
      {"hashed_replies", static_cast<double>(tally.hashed), "count", tally.ok},
      {"gen_lag_p99_us", d.lag_p99_us, "us", 1},
      {"p50_ms", Percentile(lat, 0.50), "ms", lat.size()},
      // Not gated: on a shared host, stalls of the whole machine set the
      // tail of the short requests (README.md, Repeatability).
      {"p90_ms", Percentile(lat, 0.90), "ms", lat.size()},
      {"p99_ms", Percentile(lat, 0.99), "ms", lat.size()},
  };
  if (d.w.rate > 0)
    info.push_back({"offered_qps", d.w.rate, "1/s", d.open.size() + d.unsent});
  for (const Metric& m : StatementMedians(d)) info.push_back(m);
  return info;
}

// The per-layer metrics of a traced run that come from the wire exchange,
// the observer-cost phase, set-up and the benchmark's own spans.
std::vector<Metric> WireTracedMetrics(const RunData& d,
                                      const LayerTable& table) {
  std::vector<Outcome> wire = d.warmup;
  Append(&wire, d.open);
  Append(&wire, d.capacity);
  std::vector<Metric> m;
  WireLayerMetrics(wire, &m);
  const ObserverCost& oc = d.observer;
  const double plain = Median(oc.plain_ms);
  m.push_back({"obs.client_trace_ratio",
               plain > 0 ? Median(oc.client_trace_ms) / plain : 0, "ratio",
               oc.client_trace_ms.size()});
  m.push_back({"obs.span_ratio", plain > 0 ? Median(oc.spans_ms) / plain : 0,
               "ratio", oc.spans_ms.size()});
  m.push_back({"setup.dump_load_s", d.load_s, "s", 1});
  m.push_back({"setup.index_build_s", d.index_s, "s", 1});
  m.push_back({"bench.gen_lag_p99_us", d.lag_p99_us, "us", 1});
  m.push_back({"bench.span_coverage", table.coverage(), "ratio", 1});
  return m;
}

RunResult RunWorkload(const Options& opt, const std::string& name,
                      uint64_t seed) {
  RunResult res;
  res.workload = name;
  res.seed = seed;
  const Clock::time_point epoch = Clock::now();
  RunData d;
  d.w = MakeWorkload(name, seed);
  const std::string dump = opt.out_dir + "/" + name + ".dump";
  const Database db = PrepareDump(dump, &d);
  const std::string bin = opt.server_bin.empty()
                              ? ExeDir() + "/ldb/examples/ldb_server"
                              : opt.server_bin;
  const std::vector<std::string> args = {"--db",      dump, "--workers", "4",
                                         "--max-concurrent", "4"};

  SpanLog inproc(100, epoch);  // spans of the in-process layer probes
  LayerTable table;
  std::vector<Metric> layers;
  std::string chrome;
  // A traced run attributes time to layers rather than feeding the gate,
  // so one server, whose spans make one trace, is enough.
  const int rounds = opt.traced ? 1 : kRounds;
  const double round_s = opt.seconds / rounds;
  for (int r = 0; r < rounds; ++r) {
    const uint64_t round_seed = Mix64(seed) + static_cast<uint64_t>(r);
    ServerProcess server(bin, args);
    d.startup_s.push_back(server.startup_s());
    {
      LoadGenerator load(
          d.w, server.port(), opt.traced, epoch,
          1 + d.warmup.size() + d.open.size() + d.capacity.size());
      Append(&d.warmup, load.Warmup());
      double capacity_s = 0;
      if (d.w.rate > 0) {
        uint64_t unsent = 0;
        Append(&d.open,
               load.OpenLoop(
                   PoissonSchedule(d.w, kOpenShare * round_s, round_seed),
                   &unsent));
        d.unsent += unsent;
        Append(&d.capacity, load.ClosedLoop((1 - kOpenShare) * round_s,
                                            round_seed, &capacity_s));
      } else {
        Append(&d.capacity, load.ClosedLoop(round_s, round_seed, &capacity_s));
      }
      d.capacity_s += capacity_s;
      if (opt.traced) {
        // Analytic pins P-SCAN; the serving workloads use their own mix.
        d.observer = load.MeasureObserverCost(kObserverCostSeconds, seed,
                                              d.w.rate > 0 ? -1 : 0);
        table = BuildLayerTable(load.span_logs());
        layers = MeasureLayers(db, d.w, &inproc, &res.statements);
        std::vector<const SpanLog*> logs = load.span_logs();
        logs.push_back(&inproc);
        chrome = ChromeTraceJson(logs, kTraceRequests);
      }
    }
    d.rss_mb.push_back(server.PeakRssMb());
    const int status = server.Stop();
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      std::fprintf(stderr, "ldb_bench: ldb_server exited with status %d\n",
                   status);
  }
  std::error_code ec;
  fs::remove(dump, ec);
  d.lag_p99_us = LagP99(d);
  if (opt.traced) {
    res.per_layer = WireTracedMetrics(d, table);
    res.per_layer.insert(res.per_layer.end(), layers.begin(), layers.end());
  }

  Tally tally;
  for (const auto* outs :
       {&d.warmup, &d.open, &d.capacity, &d.observer.outcomes})
    tally.Add(*outs);
  res.attempted = tally.attempted + d.unsent;
  res.failed = tally.failed + d.unsent;
  res.correct = tally.wrong == 0 && tally.ok > 0;
  res.valid = d.w.rate <= 0 || d.lag_p99_us <= kMaxGenLagUs;
  const std::vector<double> lat = LatencySamples(d.w, d.open, d.capacity);
  res.end_to_end = EndToEndMetrics(d);
  res.info = InfoMetrics(d, lat, res, tally);

  if (opt.traced) {
    res.layer_table_json = table.ToJson();
    const std::string trace_file = opt.out_dir + "/" + name + ".trace.json";
    std::ofstream(trace_file) << chrome;
    std::printf("# %s: Chrome trace -> %s (ui.perfetto.dev)\n", name.c_str(),
                trace_file.c_str());
    std::printf("# %s: per-layer self time (wire requests)\n%s", name.c_str(),
                table.ToText().c_str());
  }
  return res;
}

// ---------------------------------------------------------------------------
// Reporting.

void PrintMetrics(const std::string& label, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%s %s %s %s n=%llu\n", label.c_str(), m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
}

// {"<name>": {"value": v, "unit": u[, "samples": n]}, ...}
std::string MetricsJson(const std::vector<Metric>& ms, bool with_samples) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << JsonEscape(ms[i].name)
       << "\": {\"value\": " << Num(ms[i].value) << ", \"unit\": \""
       << JsonEscape(ms[i].unit) << "\"";
    if (with_samples) os << ", \"samples\": " << ms[i].samples;
    os << "}";
  }
  os << "}";
  return os.str();
}

// Per (workload, metric): median, quartiles and spread across runs.
struct SummaryRow {
  std::string workload, metric, unit;
  Quartiles q;
  size_t runs = 0;
};

std::vector<SummaryRow> Summarize(const std::vector<RunResult>& runs) {
  std::map<std::pair<std::string, std::string>, std::vector<double>> values;
  std::map<std::pair<std::string, std::string>, std::string> units;
  std::vector<std::pair<std::string, std::string>> order;
  for (const RunResult& r : runs) {
    for (const auto* set : {&r.end_to_end, &r.per_layer}) {
      for (const Metric& m : *set) {
        auto key = std::make_pair(r.workload, m.name);
        if (values.count(key) == 0) order.push_back(key);
        values[key].push_back(m.value);
        units[key] = m.unit;
      }
    }
  }
  std::vector<SummaryRow> out;
  for (const auto& key : order) {
    SummaryRow row{key.first, key.second, units[key],
                   ComputeQuartiles(values[key]), values[key].size()};
    out.push_back(row);
  }
  return out;
}

void WriteJsonReport(const Options& opt, const std::vector<RunResult>& runs,
                     const std::vector<SummaryRow>& summary,
                     const std::vector<Metric>& paper) {
  std::ofstream out(opt.json_file);
  if (!out) {
    std::fprintf(stderr, "ldb_bench: cannot write %s\n", opt.json_file.c_str());
    return;
  }
  // The commit of a git work tree rooted at the working directory; the
  // ceiling keeps git from searching the directories above it.
  std::string commit = Popen(
      "GIT_CEILING_DIRECTORIES=\"$(dirname \"$PWD\")\" "
      "git rev-parse HEAD 2>/dev/null");
  if (commit.empty()) commit = "unknown";
  out << "{\n  \"bench\": \"ldb_bench\",\n"
      << "  \"commit\": \"" << JsonEscape(commit) << "\",\n"
      << "  \"timestamp\": \"" << UtcNow() << "\",\n"
      << "  \"host\": {\"nproc\": " << UsableCpus()
      << ", \"cpu_model\": \"" << JsonEscape(CpuModel())
      << "\", \"build_type\": \"" << LDB_BENCH_BUILD_TYPE
      << "\", \"ldb_metrics\": "
      << (obs::MetricsRegistry::Enabled() ? "true" : "false")
      << ", \"server_bin\": \""
      << JsonEscape(opt.server_bin.empty() ? "built with ldb_bench"
                                           : opt.server_bin)
      << "\"},\n"
      << "  \"options\": {\"seed\": " << opt.seed
      << ", \"seconds\": " << Num(opt.seconds)
      << ", \"traced\": " << (opt.traced ? "true" : "false")
      << ", \"repeat\": " << opt.repeat << "},\n";
  if (!paper.empty())
    out << "  \"paper\": " << MetricsJson(paper, true) << ",\n";
  out << "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    out << "    {\"workload\": \"" << r.workload << "\", \"seed\": " << r.seed
        << ", \"correct\": " << (r.correct ? "true" : "false")
        << ", \"valid\": " << (r.valid ? "true" : "false")
        << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
        << ",\n     \"end_to_end\": " << MetricsJson(r.end_to_end, true)
        << ",\n     \"info\": " << MetricsJson(r.info, true);
    if (!r.per_layer.empty()) {
      out << ",\n     \"per_layer\": " << MetricsJson(r.per_layer, true)
          << ",\n     \"layer_table\": " << r.layer_table_json
          << ",\n     \"statements\": [";
      for (size_t k = 0; k < r.statements.size(); ++k) {
        const StatementCost& s = r.statements[k];
        out << (k ? ", " : "") << "{\"label\": \"" << s.label
            << "\", \"serial_ms\": " << Num(s.serial_ms)
            << ", \"parallel_ms\": " << Num(s.parallel_ms)
            << ", \"rows\": " << s.rows << "}";
      }
      out << "]";
    }
    out << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"summary\": [\n";
  for (size_t i = 0; i < summary.size(); ++i) {
    const SummaryRow& s = summary[i];
    out << "    {\"workload\": \"" << s.workload << "\", \"metric\": \""
        << JsonEscape(s.metric) << "\", \"unit\": \"" << JsonEscape(s.unit)
        << "\", \"runs\": " << s.runs << ", \"median\": " << Num(s.q.median)
        << ", \"q1\": " << Num(s.q.q1) << ", \"q3\": " << Num(s.q.q3)
        << ", \"spread\": " << Num(s.q.spread()) << "}"
        << (i + 1 < summary.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("# results -> %s\n", opt.json_file.c_str());
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload lookup|nested|adhoc|analytic|all] "
               "[--seed N] [--seconds S]\n"
               "          [--trace 0|1] [--repeat N] "
               "[--server-bin PATH] [--out DIR] [--json FILE]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string v = next();
      opt.workloads =
          v == "all" ? WorkloadNames() : std::vector<std::string>{v};
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(next().c_str());
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") return Usage(argv[0]);
      opt.traced = v == "1";
    } else if (arg == "--repeat") {
      opt.repeat = std::atoi(next().c_str());
    } else if (arg == "--server-bin") {
      opt.server_bin = next();
    } else if (arg == "--out") {
      opt.out_dir = next();
    } else if (arg == "--json") {
      opt.json_file = next();
    } else {
      return Usage(argv[0]);
    }
  }
  for (const std::string& w : opt.workloads) {
    const auto& names = WorkloadNames();
    if (std::find(names.begin(), names.end(), w) == names.end()) {
      std::fprintf(stderr, "unknown workload '%s'\n", w.c_str());
      return Usage(argv[0]);
    }
  }
  if (opt.seconds <= 0 || opt.repeat < 1) return Usage(argv[0]);
  if (opt.out_dir.empty()) opt.out_dir = ExeDir() + "/out";
  if (opt.json_file.empty()) opt.json_file = opt.out_dir + "/ldb_bench.json";
  std::error_code ec;
  fs::create_directories(opt.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "ldb_bench: cannot create %s: %s\n",
                 opt.out_dir.c_str(), ec.message().c_str());
    return 3;
  }

  std::vector<RunResult> runs;
  // The paper rows do not depend on the workload: measured once.
  std::vector<Metric> paper;
  bool paper_agree = true;
  try {
    for (const std::string& name : opt.workloads) {
      for (int r = 0; r < opt.repeat; ++r) {
        RunResult res = RunWorkload(opt, name, opt.seed);
        std::printf("# %s seed %llu: %s, %llu attempted, %llu failed%s\n",
                    name.c_str(), static_cast<unsigned long long>(res.seed),
                    res.correct ? "correct" : "WRONG RESULTS",
                    static_cast<unsigned long long>(res.attempted),
                    static_cast<unsigned long long>(res.failed),
                    res.valid ? "" : ", INVALID (generator lag)");
        PrintMetrics(name, res.end_to_end);
        PrintMetrics(name, res.info);
        PrintMetrics(name, res.per_layer);
        std::fflush(stdout);
        runs.push_back(std::move(res));
      }
    }
    if (opt.traced) {
      paper = MeasurePaperRows(&paper_agree);
      std::printf("# paper rows: %s\n",
                  paper_agree ? "baseline and unnested agree"
                              : "WRONG RESULTS");
      PrintMetrics("paper", paper);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldb_bench: %s\n", e.what());
    return 3;
  }

  const std::vector<SummaryRow> summary = Summarize(runs);
  if (opt.repeat > 1) {
    std::printf("# %-10s %-34s %14s %14s %14s %8s\n", "workload", "metric",
                "median", "q1", "q3", "spread");
    for (const SummaryRow& s : summary) {
      std::printf(
          "# %-10s %-34s %14.6g %14.6g %14.6g %7.2f%%  (%s, %zu runs)\n",
          s.workload.c_str(), s.metric.c_str(), s.q.median, s.q.q1, s.q.q3,
          100 * s.q.spread(), s.unit.c_str(), s.runs);
    }
  }
  WriteJsonReport(opt, runs, summary, paper);

  // The last line: one JSON object. A single run reports its metrics by
  // name; several runs report each (workload, metric) median. The paper
  // rows follow by name.
  bool correct = paper_agree;
  uint64_t attempted = 0, failed = 0;
  for (const RunResult& r : runs) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
  }
  std::vector<Metric> metrics;
  if (runs.size() == 1) {
    metrics = opt.traced ? runs[0].per_layer : runs[0].end_to_end;
  } else {
    for (const SummaryRow& s : summary) {
      metrics.push_back(
          {s.workload + "." + s.metric, s.q.median, s.unit, s.runs});
    }
  }
  metrics.insert(metrics.end(), paper.begin(), paper.end());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics, false).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ldb::e2e

int main(int argc, char** argv) { return ldb::e2e::Main(argc, argv); }
