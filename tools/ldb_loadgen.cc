// ldb_loadgen — open-loop load harness for ldb_server (docs/WIRE.md).
//
//   $ ./tools/ldb_loadgen --port 4994 --rate 100 --duration-s 10 --connections 8
//       --json serving.json
//
// Open-loop means fixed arrival rate: every request has a precomputed
// arrival time (i / rate seconds after start) and its latency is measured
// from that *scheduled* arrival, not from when the client got around to
// sending it — so a saturated server shows its real queueing delay instead
// of the coordinated-omission mirage a closed loop produces.
//
// The workload replays the SERVICE mix from bench_unnesting (type-A,
// type-JA, count-bug, and a parameterized lookup rotated through its
// bindings), PREPAREd once per connection and issued as EXECUTE(prepared).
// Requests are assigned to connections round-robin.
//
// Outcomes are counted by wire error code: ok, rejected (ADMISSION — the
// server's admission queue overflowed), cancelled (CANCELLED — deadline
// expiry or an injected CANCEL when --cancel-every is set), errors
// (anything else). --json writes a {"serving": [...]} report that
// tools/merge_serving.py folds into BENCH_unnesting.json and
// tools/bench_compare.py diffs across runs.
//
// Every EXECUTE carries a minted trace context (docs/WIRE.md v2), and every
// EXEC_OK comes back with the server-side phase breakdown (wire wait, queue,
// compile, exec, serialize) plus the request's trace id. The report's
// "server_phases" section separates server time from client-observed
// latency — when p99 blows up, it says whether the milliseconds went to
// admission queueing or to execution. --trace-out FILE additionally fetches
// the slowest request's full span trace from the server's tail-sampling
// ring over INTROSPECT (a second connection, after the run) and writes it
// as Chrome/Perfetto JSON.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/net/client.h"

namespace {

using namespace ldb;
using clock_t_ = std::chrono::steady_clock;

// The SERVICE statement mix (bench/bench_unnesting.cc).
struct MixEntry {
  const char* oql;
  bool parameterized;
};
const MixEntry kMix[] = {
    {"select distinct struct(D: d.name, total: sum(select e.salary "
     "from e in Employees where e.dno = d.dno)) from d in Departments",
     false},
    {"select distinct e.name from e in Employees "
     "where e.salary < max(select m.salary from m in Managers "
     "where e.age > m.age)",
     false},
    {"select distinct d.name from d in Departments "
     "where count(select e from e in Employees where e.dno = d.dno) = 0",
     false},
    {"select distinct e.name from e in Employees where e.dno = $1", true},
};
constexpr size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 4994;
  int connections = 8;
  double rate = 50;       ///< offered arrivals per second (all connections)
  double duration_s = 10;
  uint64_t deadline_ms = 0;  ///< per-request deadline sent on EXECUTE
  uint32_t fetch_batch = 0;  ///< rows per ROWS batch (0 = server default)
  int cancel_every = 0;      ///< inject a CANCEL on every Nth request
  std::string json_file;
  std::string trace_out;  ///< fetch the slowest trace via INTROSPECT
  std::string label = "service-mix";
};

struct Outcome {
  double latency_ms = 0;  ///< completion - scheduled arrival
  enum { kOk, kRejected, kCancelled, kError } kind = kOk;
  // Server-reported phase breakdown from the EXEC_OK v2 extension (all 0
  // against a v1 server).
  double queue_wait_ms = 0;
  double queue_ms = 0;
  double compile_ms = 0;
  double exec_ms = 0;
  double serialize_ms = 0;
  uint64_t trace_id = 0;
};

struct ConnReport {
  std::vector<Outcome> outcomes;
  int transport_errors = 0;
};

void RunConnection(const Options& opt, const std::vector<size_t>& indices,
                   clock_t_::time_point start, ConnReport* report) {
  net::Client client;
  try {
    net::HelloRequest hello;
    client.Connect(opt.host, opt.port, hello);
  } catch (const Error&) {
    report->transport_errors += static_cast<int>(indices.size());
    return;
  }

  uint64_t handles[kMixSize] = {};
  try {
    for (size_t m = 0; m < kMixSize; ++m) {
      handles[m] = client.Prepare(kMix[m].oql);
    }
  } catch (const Error&) {
    report->transport_errors += static_cast<int>(indices.size());
    return;
  }

  for (size_t req : indices) {
    auto scheduled =
        start + std::chrono::duration_cast<clock_t_::duration>(
                    std::chrono::duration<double>(req / opt.rate));
    std::this_thread::sleep_until(scheduled);

    const size_t m = req % kMixSize;
    Outcome out;
    std::thread canceller;
    try {
      if (kMix[m].parameterized) {
        client.Bind({{"1", Value::Int(static_cast<int64_t>(req % 4))}});
      }
      if (opt.cancel_every > 0 &&
          req % static_cast<size_t>(opt.cancel_every) == 0) {
        canceller = std::thread([&client] {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          try {
            client.Cancel();
          } catch (const Error&) {
          }
        });
      }
      net::ClientResult r =
          client.ExecutePrepared(handles[m], opt.deadline_ms, opt.fetch_batch);
      out.kind = Outcome::kOk;
      out.queue_wait_ms = r.exec.queue_wait_ms;
      out.queue_ms = r.exec.queue_ms;
      out.compile_ms = r.exec.compile_ms;
      out.exec_ms = r.exec.exec_ms;
      out.serialize_ms = r.exec.serialize_ms;
      out.trace_id = r.exec.trace_id;
    } catch (const net::RemoteError& e) {
      out.kind = e.code() == net::ErrorCode::kAdmission ? Outcome::kRejected
                 : e.code() == net::ErrorCode::kCancelled
                     ? Outcome::kCancelled
                     : Outcome::kError;
    } catch (const Error&) {
      // Transport failure: this connection is done.
      if (canceller.joinable()) canceller.join();
      ++report->transport_errors;
      break;
    }
    if (canceller.joinable()) canceller.join();
    out.latency_ms = std::chrono::duration<double, std::milli>(
                         clock_t_::now() - scheduled)
                         .count();
    report->outcomes.push_back(out);
  }
  try {
    client.Close();
  } catch (const Error&) {
  }
}

double Pct(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[static_cast<size_t>(p * (sorted.size() - 1))];
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host A] [--port P] [--connections N] [--rate QPS]\n"
      "          [--duration-s S] [--deadline-ms N] [--fetch-batch N]\n"
      "          [--cancel-every N] [--json FILE] [--trace-out FILE]\n"
      "          [--label NAME]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      opt.host = next();
    } else if (arg == "--port") {
      opt.port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--connections") {
      opt.connections = std::max(1, std::atoi(next()));
    } else if (arg == "--rate") {
      opt.rate = std::atof(next());
    } else if (arg == "--duration-s") {
      opt.duration_s = std::atof(next());
    } else if (arg == "--deadline-ms") {
      opt.deadline_ms = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--fetch-batch") {
      opt.fetch_batch = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--cancel-every") {
      opt.cancel_every = std::atoi(next());
    } else if (arg == "--json") {
      opt.json_file = next();
    } else if (arg == "--trace-out") {
      opt.trace_out = next();
    } else if (arg == "--label") {
      opt.label = next();
    } else {
      return Usage(argv[0]);
    }
  }
  if (opt.rate <= 0 || opt.duration_s <= 0) return Usage(argv[0]);

  const size_t n_requests =
      static_cast<size_t>(opt.rate * opt.duration_s);
  std::vector<std::vector<size_t>> per_conn(
      static_cast<size_t>(opt.connections));
  for (size_t i = 0; i < n_requests; ++i) {
    per_conn[i % per_conn.size()].push_back(i);
  }

  std::printf(
      "ldb_loadgen: offering %.1f q/s for %.1f s over %d connections "
      "(%zu requests) against %s:%u\n",
      opt.rate, opt.duration_s, opt.connections, n_requests, opt.host.c_str(),
      static_cast<unsigned>(opt.port));

  std::vector<ConnReport> reports(per_conn.size());
  clock_t_::time_point start = clock_t_::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(per_conn.size());
    for (size_t c = 0; c < per_conn.size(); ++c) {
      threads.emplace_back(RunConnection, std::cref(opt),
                           std::cref(per_conn[c]), start, &reports[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_s =
      std::chrono::duration<double>(clock_t_::now() - start).count();

  size_t n_ok = 0, n_rejected = 0, n_cancelled = 0, n_error = 0,
         n_transport = 0;
  std::vector<double> ok_latencies;
  // Server-phase accumulators over ok requests, and the slowest traced
  // request (the trace --trace-out goes after).
  double sum_wait = 0, sum_queue = 0, sum_compile = 0, sum_exec = 0,
         sum_serialize = 0;
  uint64_t slowest_trace_id = 0;
  double slowest_latency_ms = -1;
  for (const ConnReport& r : reports) {
    n_transport += static_cast<size_t>(r.transport_errors);
    for (const Outcome& o : r.outcomes) {
      switch (o.kind) {
        case Outcome::kOk:
          ++n_ok;
          ok_latencies.push_back(o.latency_ms);
          sum_wait += o.queue_wait_ms;
          sum_queue += o.queue_ms;
          sum_compile += o.compile_ms;
          sum_exec += o.exec_ms;
          sum_serialize += o.serialize_ms;
          if (o.trace_id != 0 && o.latency_ms > slowest_latency_ms) {
            slowest_latency_ms = o.latency_ms;
            slowest_trace_id = o.trace_id;
          }
          break;
        case Outcome::kRejected:
          ++n_rejected;
          break;
        case Outcome::kCancelled:
          ++n_cancelled;
          break;
        case Outcome::kError:
          ++n_error;
          break;
      }
    }
  }
  std::sort(ok_latencies.begin(), ok_latencies.end());
  const double achieved = wall_s > 0 ? n_ok / wall_s : 0;
  const double p50 = Pct(ok_latencies, 0.50);
  const double p95 = Pct(ok_latencies, 0.95);
  const double p99 = Pct(ok_latencies, 0.99);
  const double max_ms = ok_latencies.empty() ? 0 : ok_latencies.back();

  std::printf(
      "achieved %.1f q/s in %.1f s | ok %zu | rejected %zu | cancelled %zu | "
      "errors %zu | transport %zu\n",
      achieved, wall_s, n_ok, n_rejected, n_cancelled, n_error, n_transport);
  std::printf(
      "latency from scheduled arrival (ms): p50 %.2f | p95 %.2f | p99 %.2f "
      "| max %.2f\n",
      p50, p95, p99, max_ms);
  const double inv_ok = n_ok > 0 ? 1.0 / static_cast<double>(n_ok) : 0;
  const double mean_wait = sum_wait * inv_ok;
  const double mean_queue = sum_queue * inv_ok;
  const double mean_compile = sum_compile * inv_ok;
  const double mean_exec = sum_exec * inv_ok;
  const double mean_serialize = sum_serialize * inv_ok;
  std::printf(
      "server phases, mean over ok (ms): wait %.3f | queue %.3f | "
      "compile %.3f | exec %.3f | serialize %.3f | slowest trace %s\n",
      mean_wait, mean_queue, mean_compile, mean_exec, mean_serialize,
      obs::TraceIdHex(slowest_trace_id).c_str());

  if (!opt.json_file.empty()) {
    std::ofstream out(opt.json_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_file.c_str());
      return 1;
    }
    char buf[2048];
    std::snprintf(
        buf, sizeof(buf),
        "{\n  \"serving\": [\n    {\n"
        "      \"label\": \"%s\",\n"
        "      \"connections\": %d,\n"
        "      \"offered_qps\": %.3f,\n"
        "      \"achieved_qps\": %.3f,\n"
        "      \"duration_s\": %.3f,\n"
        "      \"requests\": %zu,\n"
        "      \"ok\": %zu,\n"
        "      \"rejected\": %zu,\n"
        "      \"cancelled\": %zu,\n"
        "      \"errors\": %zu,\n"
        "      \"transport_errors\": %zu,\n"
        "      \"deadline_ms\": %llu,\n"
        "      \"p50_ms\": %.3f,\n"
        "      \"p95_ms\": %.3f,\n"
        "      \"p99_ms\": %.3f,\n"
        "      \"max_ms\": %.3f,\n"
        "      \"server_phases\": {\n"
        "        \"queue_wait_ms_mean\": %.4f,\n"
        "        \"queue_ms_mean\": %.4f,\n"
        "        \"compile_ms_mean\": %.4f,\n"
        "        \"exec_ms_mean\": %.4f,\n"
        "        \"serialize_ms_mean\": %.4f,\n"
        "        \"slowest_trace_id\": \"%s\",\n"
        "        \"slowest_latency_ms\": %.3f\n"
        "      }\n"
        "    }\n  ]\n}\n",
        opt.label.c_str(), opt.connections, opt.rate, achieved, wall_s,
        n_requests, n_ok, n_rejected, n_cancelled, n_error, n_transport,
        static_cast<unsigned long long>(opt.deadline_ms), p50, p95, p99,
        max_ms, mean_wait, mean_queue, mean_compile, mean_exec,
        mean_serialize, obs::TraceIdHex(slowest_trace_id).c_str(),
        slowest_latency_ms < 0 ? 0 : slowest_latency_ms);
    out << buf;
    std::printf("ldb_loadgen: wrote %s\n", opt.json_file.c_str());
  }

  // --trace-out: fetch the slowest request's span trace from the server's
  // tail-sampling ring, over a FRESH connection (proving remote
  // introspection works from a second client). Falls back to the server's
  // own slowest kept trace when ours was sampled out or evicted.
  if (!opt.trace_out.empty()) {
    try {
      net::Client c;
      c.Connect(opt.host, opt.port, net::HelloRequest{});
      std::string json;
      try {
        json = c.Introspect(net::IntrospectRequest::kTrace, 0,
                            slowest_trace_id);
      } catch (const net::RemoteError&) {
        json = c.Introspect(net::IntrospectRequest::kTrace, 0, 0);
      }
      c.Close();
      std::ofstream out(opt.trace_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
        return 1;
      }
      out << json;
      std::printf("ldb_loadgen: wrote %s (load via ui.perfetto.dev)\n",
                  opt.trace_out.c_str());
    } catch (const Error& e) {
      std::fprintf(stderr, "ldb_loadgen: trace fetch failed: %s\n", e.what());
    }
  }

  // Exit nonzero if nothing succeeded — the CI smoke test asserts on this.
  return n_ok > 0 ? 0 : 1;
}
