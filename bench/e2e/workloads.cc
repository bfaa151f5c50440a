#include "bench/e2e/workloads.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "bench/e2e/bench_util.h"
#include "src/lambdadb.h"
#include "src/workload/company.h"

namespace ldb::e2e {

namespace {

// A department's employees, found through the index on dno.
constexpr const char* kLookup =
    "select distinct e.name from e in Employees where e.dno = $1";
// P-SCAN: scan-filter-aggregate, pure per-row expression cost.
constexpr const char* kScan =
    "sum(select e.salary + e.age * 100 from e in Employees "
    "where e.age > 21 and e.age < 65 and e.salary > 35000.0)";
// P-DEEP: three generators joined by a navigation-heavy predicate.
constexpr const char* kDeep =
    "select distinct struct(E: e.name, M: m.name, D: d.name) "
    "from e in Employees, d in Departments, m in Managers "
    "where e.dno = d.dno and m.name = e.manager.name "
    "and e.age < m.age and e.salary < m.salary and d.budget > e.salary";

// Ad-hoc templates: the same four nesting shapes with one seeded literal
// each, so every literal yields a distinct plan-cache key.
struct Template {
  const char* format;  ///< printf format with one %d
  int lo, hi;          ///< literal range
};
constexpr Template kTemplates[] = {
    {"select distinct struct(D: d.name, total: sum(select e.salary "
     "from e in Employees where e.dno = d.dno and e.salary > %d.0)) "
     "from d in Departments",
     30000, 120000},
    {"select distinct e.name from e in Employees "
     "where e.salary + %d.0 < max(select m.salary from m in Managers "
     "where e.age > m.age)",
     0, 90000},
    {"select distinct d.name from d in Departments "
     "where count(select e from e in Employees where e.dno = d.dno "
     "and e.salary > %d.0) = 0",
     30000, 120000},
    {"select distinct struct(E: e.name, M: m.name, D: d.name) "
     "from e in Employees, d in Departments, m in Managers "
     "where e.dno = d.dno and m.name = e.manager.name "
     "and e.age < m.age and e.salary < m.salary "
     "and d.budget > e.salary + %d.0",
     0, 100000},
};
constexpr size_t kLiteralsPerTemplate = 256;
constexpr size_t kRecentTexts = 32;
constexpr double kRepeatShare = 0.1;

int Departments(int scale) { return std::max(4, scale / 40); }

// One prepared statement bound to every department number.
void AddLookups(Workload* w, int stmt) {
  for (int d = 0; d < Departments(w->scale); ++d) {
    Call c;
    c.stmt = stmt;
    c.group = stmt;
    c.has_param = true;
    c.param = d;
    c.oql = w->prepared[static_cast<size_t>(stmt)];
    c.oql.replace(c.oql.find("$1"), 2, std::to_string(d));
    w->calls.push_back(std::move(c));
  }
}

void AddPlain(Workload* w) {
  for (size_t s = 0; s < w->prepared.size(); ++s) {
    if (w->prepared[s].find("$1") != std::string::npos) continue;
    Call c;
    c.stmt = static_cast<int>(s);
    c.group = c.stmt;
    c.oql = w->prepared[s];
    w->calls.push_back(std::move(c));
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"lookup", "nested", "adhoc",
                                                 "analytic"};
  return names;
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "lookup") {
    w.scale = 8000;
    w.rate = 4000;
    w.prepared = {kLookup};
    w.labels = {"lookup"};
    AddLookups(&w, 0);
  } else if (name == "nested") {
    w.scale = 2000;
    w.rate = 150;
    w.prepared = {kTypeA, kTypeJA, kCountBug, kLookup};
    w.labels = {"typeA", "typeJA", "countbug", "lookup"};
    AddPlain(&w);
    AddLookups(&w, 3);
  } else if (name == "adhoc") {
    w.scale = 200;
    w.rate = 1000;
    w.pick = Pick::kAdhoc;
    w.labels = {"typeA", "typeJA", "countbug", "deep"};
    std::mt19937_64 rng(Mix64(seed ^ 0xad0cULL));
    for (size_t g = 0; g < std::size(kTemplates); ++g) {
      const Template& t = kTemplates[g];
      std::uniform_int_distribution<int> literal(t.lo, t.hi - 1);
      std::set<int> seen;
      while (seen.size() < kLiteralsPerTemplate) {
        int k = literal(rng);
        if (!seen.insert(k).second) continue;
        char buf[512];
        std::snprintf(buf, sizeof(buf), t.format, k);
        Call c;
        c.group = static_cast<int>(g);
        c.oql = buf;
        w.calls.push_back(std::move(c));
      }
    }
  } else if (name == "analytic") {
    w.scale = 131072;
    w.connections = 1;
    w.session_threads = 4;
    w.pick = Pick::kRotate;
    w.prepared = {kScan, kDeep, kTypeA};
    w.labels = {"scan", "join", "group"};
    AddPlain(&w);
  } else {
    throw Error("unknown workload '" + name + "'");
  }
  return w;
}

Database MakeCompany(int scale, uint64_t seed) {
  workload::CompanyParams p;
  p.n_employees = scale;
  p.n_departments = Departments(scale);
  p.n_managers = std::max(2, scale / 100);
  p.seed = seed;
  return workload::MakeCompanyDatabase(p);
}

Database MakeWorkloadDatabase(const Workload& w) {
  Database db = MakeCompany(w.scale, kDataSeed);
  db.DeclareIndex("Employees", "dno");
  return db;
}

void ComputeOracle(const Database& db, Workload* w) {
  for (Call& c : w->calls) {
    Value v = RunOQL(db, c.oql);
    c.rows = v.is_collection() ? v.AsElems().size() : 1;
    c.digest = ResultDigest(v);
  }
}

std::vector<size_t> RepresentativeCalls(const Workload& w) {
  std::vector<size_t> out;
  if (w.pick == Pick::kAdhoc) {
    for (size_t i = 0; i < w.calls.size(); i += 128) out.push_back(i);
    return out;
  }
  for (size_t s = 0; s < w.prepared.size(); ++s) {
    for (size_t i = 0; i < w.calls.size(); ++i) {
      if (w.calls[i].stmt == static_cast<int>(s)) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

uint64_t ResultDigest(const std::vector<Value>& rows) {
  uint64_t sum = 0;
  for (const Value& r : rows) sum += Mix64(r.Hash());
  return Mix64(sum + rows.size());
}

uint64_t ResultDigest(const Value& result) {
  if (result.is_collection()) return ResultDigest(result.AsElems());
  return ResultDigest(std::vector<Value>{result});
}

CallStream::CallStream(const Workload& w, uint64_t seed)
    : w_(w), rng_(Mix64(seed)), by_stmt_(w.prepared.size()) {
  for (size_t i = 0; i < w.calls.size(); ++i) {
    int s = w.calls[i].stmt;
    if (s >= 0) by_stmt_[static_cast<size_t>(s)].push_back(i);
  }
}

size_t CallStream::Next() {
  auto uniform = [this](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  };
  switch (w_.pick) {
    case Pick::kRotate:
      return next_++ % w_.calls.size();
    case Pick::kByStatement: {
      const std::vector<size_t>& calls = by_stmt_[uniform(by_stmt_.size())];
      return calls[uniform(calls.size())];
    }
    case Pick::kAdhoc: {
      size_t call = 0;
      if (!recent_.empty() &&
          std::uniform_real_distribution<double>(0, 1)(rng_) < kRepeatShare) {
        call = recent_[uniform(recent_.size())];
      } else {
        call = uniform(w_.calls.size());
      }
      recent_.push_back(call);
      if (recent_.size() > kRecentTexts) recent_.pop_front();
      return call;
    }
  }
  return 0;
}

std::vector<Arrival> PoissonSchedule(const Workload& w, double duration_s,
                                     uint64_t seed) {
  std::vector<Arrival> out;
  if (w.rate <= 0) return out;
  std::mt19937_64 rng(Mix64(seed ^ 0xa441ULL));
  std::exponential_distribution<double> gap(w.rate);
  CallStream calls(w, seed ^ 0x5c4edULL);
  for (double t = gap(rng); t < duration_s; t += gap(rng)) {
    out.push_back(Arrival{t, static_cast<uint32_t>(calls.Next())});
  }
  return out;
}

}  // namespace ldb::e2e
