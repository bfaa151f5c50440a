// The four ldb_bench workloads (README.md says why each exists): their
// datasets, statements, the universe of concrete calls a client may send,
// the seeded choice of the next call, and the in-process reference results
// every reply is checked against.

#ifndef LAMBDADB_BENCH_E2E_WORKLOADS_H_
#define LAMBDADB_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "src/runtime/database.h"
#include "src/runtime/value.h"

namespace ldb::e2e {

// The paper's nesting classes as served by the SERVICE mix of
// bench/bench_unnesting.cc; the paper rows (layers.cc) time them too.
/// Type-A: a correlated aggregate in the head.
inline constexpr const char* kTypeA =
    "select distinct struct(D: d.name, total: sum(select e.salary "
    "from e in Employees where e.dno = d.dno)) from d in Departments";
/// Type-JA: a correlated aggregate under an inequality in the predicate.
inline constexpr const char* kTypeJA =
    "select distinct e.name from e in Employees "
    "where e.salary < max(select m.salary from m in Managers "
    "where e.age > m.age)";
/// The count bug: empty groups must survive with count 0.
inline constexpr const char* kCountBug =
    "select distinct d.name from d in Departments "
    "where count(select e from e in Employees where e.dno = d.dno) = 0";

/// How a client picks its next call.
enum class Pick {
  kByStatement,  ///< a uniform statement, then a uniform binding of it
  kAdhoc,        ///< 90% a uniform text, 10% one of the last 32 sent
  kRotate,       ///< every call in order, round after round
};

/// One concrete request: a prepared statement with its binding, or an
/// ad-hoc text, plus the reference result it must produce.
struct Call {
  int stmt = -1;          ///< index into Workload::prepared; -1 = ad-hoc
  int group = 0;          ///< index into Workload::labels
  std::string oql;        ///< the text the oracle ran ($1 substituted)
  bool has_param = false;
  int64_t param = 0;      ///< value bound to $1
  uint64_t rows = 0;      ///< reference cardinality (1 for a scalar)
  uint64_t digest = 0;    ///< reference order-independent result hash
};

struct Workload {
  std::string name;
  int scale = 0;                 ///< Company employees
  double rate = 0;               ///< open-loop arrivals/s; 0 = closed loop
  int connections = 4;           ///< client connections (one thread each)
  uint32_t session_threads = 0;  ///< HELLO n_threads (0 = server default)
  Pick pick = Pick::kByStatement;
  std::vector<std::string> prepared;  ///< PREPAREd on every connection
  std::vector<std::string> labels;    ///< per statement or ad-hoc template
  std::vector<Call> calls;
};

/// Seed of every database the benchmark generates. The data is the same on
/// every run and --seed varies only the traffic: arrivals, statement and
/// binding choices, ad-hoc literals. Data drawn from --seed would make runs
/// on different seeds differ in the cost of the work itself (type-JA at
/// scale 2000 takes 12.4-14.8 ms in-process across ten data seeds), which a
/// regression bound cannot tell from a slower program.
inline constexpr uint64_t kDataSeed = 1;

/// lookup, nested, adhoc, analytic.
const std::vector<std::string>& WorkloadNames();

/// The workload's statements and call universe (oracle fields unset).
/// Throws ldb::Error for an unknown name.
Workload MakeWorkload(const std::string& name, uint64_t seed);

/// The Company dataset with `scale` employees (and scale/40 departments,
/// scale/100 managers), generated from `seed`.
Database MakeCompany(int scale, uint64_t seed);

/// MakeCompany at the workload's scale from kDataSeed, with the index on
/// Employees.dno declared.
Database MakeWorkloadDatabase(const Workload& w);

/// Fills every call's reference rows/digest by running its text in-process
/// with RunOQL (unnested hash plans) on `db`.
void ComputeOracle(const Database& db, Workload* w);

/// Calls that stand for the workload: the first binding of each prepared
/// statement, or every 128th ad-hoc text (two per template).
std::vector<size_t> RepresentativeCalls(const Workload& w);

/// Order-independent digest of a result's rows (a collection's elements,
/// or the scalar itself), so replies can be compared whatever their order.
uint64_t ResultDigest(const std::vector<Value>& rows);
uint64_t ResultDigest(const Value& result);

/// The seeded sequence of calls one client sends.
class CallStream {
 public:
  CallStream(const Workload& w, uint64_t seed);
  size_t Next();

 private:
  const Workload& w_;
  std::mt19937_64 rng_;
  std::vector<std::vector<size_t>> by_stmt_;
  std::deque<size_t> recent_;
  size_t next_ = 0;
};

/// A Poisson arrival process at the workload's rate over `duration_s`,
/// with each arrival's call drawn from one seeded CallStream.
struct Arrival {
  double at_s = 0;
  uint32_t call = 0;
};
std::vector<Arrival> PoissonSchedule(const Workload& w, double duration_s,
                                     uint64_t seed);

}  // namespace ldb::e2e

#endif  // LAMBDADB_BENCH_E2E_WORKLOADS_H_
