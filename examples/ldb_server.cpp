// ldb_server — the network front end: serves a synthetic workload (or a
// database dump) over the ldb wire protocol (docs/WIRE.md).
//
//   $ ./examples/ldb_server [options]
//     --workload company|university|travel   synthetic dataset (default company)
//     --scale N          workload scale (default 2000)
//     --db FILE          serve a database dump instead (indexes rebuilt)
//     --host A           listen address (default 127.0.0.1)
//     --port P           listen port (default 4994; 0 = ephemeral)
//     --workers N        network worker threads (default 8)
//     --max-concurrent N admission: queries executing at once (default 4)
//     --max-queue N      admission: waiters beyond that (default 16)
//     --deadline-ms N    default per-query deadline (0 = none)
//     --memory-budget N  default per-query memory budget in bytes (0 = none)
//     --metrics-dump F   write the Prometheus metrics snapshot to F on exit
//                        (and on every SIGUSR1)
//     --trace-dump F     write the trace-ring JSON snapshot to F on exit
//                        (and on every SIGUSR1)
//
// Prints "listening on <host>:<port>" once ready (scripts wait for that
// line). SIGTERM/SIGINT trigger a graceful drain — in-flight queries finish
// (or are cancelled at the drain deadline), replies are flushed — then the
// process exits 0 with a serving summary. SIGUSR1 dumps the observability
// snapshots (--metrics-dump / --trace-dump targets) without stopping —
// "kill -USR1" is the zero-downtime way to grab server state.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/net/server.h"
#include "src/service/query_service.h"
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
  p.n_managers = std::max(2, scale / 100);
  return workload::MakeCompanyDatabase(p);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload company|university|travel] [--scale N] "
               "[--db FILE]\n"
               "          [--host A] [--port P] [--workers N] "
               "[--max-concurrent N] [--max-queue N]\n"
               "          [--deadline-ms N] [--memory-budget N] "
               "[--metrics-dump FILE] [--trace-dump FILE]\n",
               argv0);
  return 2;
}

// Writes one observability snapshot to `path` (no-op when empty). Returns
// whether the file was written, so the caller can log it.
bool DumpTo(const std::string& path, const std::string& body) {
  if (path.empty()) return false;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "ldb_server: cannot write %s\n", path.c_str());
    return false;
  }
  out << body;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name = "company";
  std::string dump_file;
  std::string metrics_dump;
  std::string trace_dump;
  int scale = 2000;
  ldb::ServiceOptions svc_opts;
  ldb::net::ServerOptions net_opts;
  net_opts.port = 4994;
  net_opts.n_workers = 8;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = next();
    } else if (arg == "--scale") {
      scale = std::atoi(next());
    } else if (arg == "--db") {
      dump_file = next();
    } else if (arg == "--host") {
      net_opts.host = next();
    } else if (arg == "--port") {
      net_opts.port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--workers") {
      net_opts.n_workers = std::atoi(next());
    } else if (arg == "--max-concurrent") {
      svc_opts.max_concurrent = std::atoi(next());
    } else if (arg == "--max-queue") {
      svc_opts.max_queue = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--deadline-ms") {
      net_opts.session.deadline_ms = std::atoll(next());
    } else if (arg == "--memory-budget") {
      net_opts.session.memory_budget_bytes =
          static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--metrics-dump") {
      metrics_dump = next();
    } else if (arg == "--trace-dump") {
      trace_dump = next();
    } else {
      return Usage(argv[0]);
    }
  }

  // Block the handled signals before any thread spawns, so every thread
  // inherits the mask and sigwait below is the single delivery point.
  // SIGUSR1 is the live snapshot trigger; INT/TERM drain and exit.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  try {
    ldb::Database db = [&] {
      if (!dump_file.empty()) {
        std::ifstream in(dump_file);
        if (!in) throw ldb::Error("cannot open dump: " + dump_file);
        return ldb::QueryService::LoadWithIndexes(in);
      }
      return MakeDb(workload_name, scale);
    }();
    std::printf("ldb_server: %s (%zu objects), admission %d+%zu, %d workers\n",
                dump_file.empty()
                    ? (workload_name + " scale " + std::to_string(scale))
                          .c_str()
                    : dump_file.c_str(),
                db.ObjectCount(), svc_opts.max_concurrent, svc_opts.max_queue,
                net_opts.n_workers);

    ldb::QueryService svc(db, svc_opts);
    ldb::net::Server server(svc, net_opts);
    server.Start();
    std::printf("listening on %s:%u\n", net_opts.host.c_str(),
                static_cast<unsigned>(server.bound_port()));
    std::fflush(stdout);

    for (;;) {
      int sig = 0;
      sigwait(&sigs, &sig);
      if (sig == SIGUSR1) {
        // Live snapshot: dump without disturbing serving, keep waiting.
        if (DumpTo(metrics_dump, svc.metrics().Snapshot().ToPrometheusText()))
          std::printf("ldb_server: SIGUSR1, metrics written to %s\n",
                      metrics_dump.c_str());
        if (DumpTo(trace_dump, svc.query_log().KeptToJson()))
          std::printf("ldb_server: SIGUSR1, trace ring written to %s\n",
                      trace_dump.c_str());
        std::fflush(stdout);
        continue;
      }
      std::printf("ldb_server: received %s, draining...\n", strsignal(sig));
      std::fflush(stdout);
      break;
    }
    server.Shutdown();

    if (DumpTo(metrics_dump, svc.metrics().Snapshot().ToPrometheusText()))
      std::printf("ldb_server: metrics written to %s\n", metrics_dump.c_str());
    if (DumpTo(trace_dump, svc.query_log().KeptToJson()))
      std::printf("ldb_server: trace ring written to %s\n", trace_dump.c_str());

    ldb::net::ServerStats st = server.stats();
    std::printf(
        "ldb_server: served %llu connections, %llu frames "
        "(%llu B in, %llu B out, %llu protocol errors)\n",
        static_cast<unsigned long long>(st.connections_total),
        static_cast<unsigned long long>(st.frames_received),
        static_cast<unsigned long long>(st.bytes_recv),
        static_cast<unsigned long long>(st.bytes_sent),
        static_cast<unsigned long long>(st.protocol_errors));
    return 0;
  } catch (const ldb::Error& e) {
    std::fprintf(stderr, "ldb_server: %s\n", e.what());
    return 1;
  }
}
