#include "src/runtime/profile.h"

#include <algorithm>
#include <sstream>

#include "src/core/optimizer.h"
#include "src/runtime/error.h"
#include "src/runtime/json.h"

namespace ldb {

void OperatorStats::MergeFrom(const OperatorStats& o) {
  opens += o.opens;
  next_calls += o.next_calls;
  rows_out += o.rows_out;
  open_ns += o.open_ns;
  next_ns += o.next_ns;
  build_rows += o.build_rows;
  groups += o.groups;
  short_circuits += o.short_circuits;
  mem_bytes += o.mem_bytes;
}

OperatorStats* QueryProfiler::Register(int op_id, PhysKind kind,
                                       const std::string& label) {
  auto it = by_id_.find(op_id);
  if (it != by_id_.end()) return it->second;
  ops_.emplace_back();
  OperatorStats* s = &ops_.back();
  s->op_id = op_id;
  s->kind = kind;
  s->label = label;
  by_id_[op_id] = s;
  return s;
}

const OperatorStats* QueryProfiler::Find(int op_id) const {
  auto it = by_id_.find(op_id);
  return it == by_id_.end() ? nullptr : it->second;
}

void QueryProfiler::MergeFrom(const QueryProfiler& other) {
  for (const OperatorStats* s : other.Operators()) {
    Register(s->op_id, s->kind, s->label)->MergeFrom(*s);
  }
}

std::vector<const OperatorStats*> QueryProfiler::Operators() const {
  std::vector<const OperatorStats*> out;
  out.reserve(ops_.size());
  for (const OperatorStats& s : ops_) out.push_back(&s);
  std::sort(out.begin(), out.end(),
            [](const OperatorStats* a, const OperatorStats* b) {
              return a->op_id < b->op_id;
            });
  return out;
}

// ---------------------------------------------------------------------------
// JSON emission (src/runtime/json.h): doubles print with %.17g so
// ProfileFromJson(ProfileToJson(p)) reproduces every value bit-exactly.
// ---------------------------------------------------------------------------

namespace {

PhysKind KindFromName(const std::string& name) {
  static const std::pair<const char*, PhysKind> kTable[] = {
      {"UnitRow", PhysKind::kUnitRow},
      {"TableScan", PhysKind::kTableScan},
      {"IndexScan", PhysKind::kIndexScan},
      {"Filter", PhysKind::kFilter},
      {"NLJoin", PhysKind::kNLJoin},
      {"HashJoin", PhysKind::kHashJoin},
      {"NLOuterJoin", PhysKind::kNLOuterJoin},
      {"HashOuterJoin", PhysKind::kHashOuterJoin},
      {"Unnest", PhysKind::kUnnest},
      {"OuterUnnest", PhysKind::kOuterUnnest},
      {"HashNest", PhysKind::kHashNest},
      {"GroupJoin", PhysKind::kGroupJoin},
      {"Reduce", PhysKind::kReduce},
  };
  for (const auto& [n, k] : kTable) {
    if (name == n) return k;
  }
  throw ParseError("profile JSON: unknown operator kind '" + name + "'");
}

}  // namespace

std::string ProfileToJson(const QueryProfiler& prof) {
  const ExecTotals& run = prof.run;
  std::ostringstream os;
  os << "{\"threads\": " << run.threads
     << ", \"morsel_size\": " << run.morsel_size
     << ", \"mode\": " << JsonQuote(run.mode.empty() ? "serial" : run.mode)
     << ", \"wall_ns\": " << JsonDouble(run.wall_ns);
  os << ", \"operators\": [";
  bool first = true;
  for (const OperatorStats* s : prof.Operators()) {
    if (!first) os << ", ";
    first = false;
    os << "{\"id\": " << s->op_id
       << ", \"kind\": " << JsonQuote(PhysKindName(s->kind))
       << ", \"label\": " << JsonQuote(s->label)
       << ", \"opens\": " << s->opens << ", \"next_calls\": " << s->next_calls
       << ", \"rows_out\": " << s->rows_out
       << ", \"open_ns\": " << JsonDouble(s->open_ns)
       << ", \"next_ns\": " << JsonDouble(s->next_ns)
       << ", \"build_rows\": " << s->build_rows << ", \"groups\": " << s->groups
       << ", \"short_circuits\": " << s->short_circuits
       << ", \"mem_bytes\": " << s->mem_bytes << "}";
  }
  os << "], \"workers\": [";
  first = true;
  for (const WorkerStats& w : run.workers) {
    if (!first) os << ", ";
    first = false;
    os << "{\"worker\": " << w.worker << ", \"morsels\": " << w.morsels
       << ", \"rows\": " << w.rows
       << ", \"busy_ns\": " << JsonDouble(w.busy_ns) << "}";
  }
  os << "], \"morsels\": [";
  first = true;
  for (const MorselStats& m : run.morsels) {
    if (!first) os << ", ";
    first = false;
    os << "{\"index\": " << m.index << ", \"lo\": " << m.lo
       << ", \"hi\": " << m.hi << ", \"rows\": " << m.rows
       << ", \"worker\": " << m.worker
       << ", \"start_ns\": " << JsonDouble(m.start_ns)
       << ", \"dur_ns\": " << JsonDouble(m.dur_ns) << "}";
  }
  os << "]}";
  return os.str();
}

QueryProfiler ProfileFromJson(const std::string& json) {
  QueryProfiler prof;
  JsonReader r(json);
  r.ExpectObjectStart();
  std::string key;
  while (r.NextKey(&key)) {
    if (key == "threads") {
      prof.run.threads = static_cast<int>(r.ParseNumber());
    } else if (key == "morsel_size") {
      prof.run.morsel_size = r.ParseUint();
    } else if (key == "mode") {
      prof.run.mode = r.ParseString();
    } else if (key == "wall_ns") {
      prof.run.wall_ns = r.ParseNumber();
    } else if (key == "operators") {
      r.ExpectArrayStart();
      while (r.NextElement()) {
        r.ExpectObjectStart();
        int id = -1;
        PhysKind kind = PhysKind::kUnitRow;
        std::string label;
        OperatorStats tmp;
        std::string f;
        while (r.NextKey(&f)) {
          if (f == "id") id = static_cast<int>(r.ParseNumber());
          else if (f == "kind") kind = KindFromName(r.ParseString());
          else if (f == "label") label = r.ParseString();
          else if (f == "opens") tmp.opens = r.ParseUint();
          else if (f == "next_calls") tmp.next_calls = r.ParseUint();
          else if (f == "rows_out") tmp.rows_out = r.ParseUint();
          else if (f == "open_ns") tmp.open_ns = r.ParseNumber();
          else if (f == "next_ns") tmp.next_ns = r.ParseNumber();
          else if (f == "build_rows") tmp.build_rows = r.ParseUint();
          else if (f == "groups") tmp.groups = r.ParseUint();
          else if (f == "short_circuits") tmp.short_circuits = r.ParseUint();
          else if (f == "mem_bytes") tmp.mem_bytes = r.ParseUint();
          else r.SkipValue();
        }
        OperatorStats* s = prof.Register(id, kind, label);
        s->MergeFrom(tmp);
      }
    } else if (key == "workers") {
      r.ExpectArrayStart();
      while (r.NextElement()) {
        r.ExpectObjectStart();
        WorkerStats w;
        std::string f;
        while (r.NextKey(&f)) {
          if (f == "worker") w.worker = static_cast<int>(r.ParseNumber());
          else if (f == "morsels") w.morsels = r.ParseUint();
          else if (f == "rows") w.rows = r.ParseUint();
          else if (f == "busy_ns") w.busy_ns = r.ParseNumber();
          else r.SkipValue();
        }
        prof.run.workers.push_back(w);
      }
    } else if (key == "morsels") {
      r.ExpectArrayStart();
      while (r.NextElement()) {
        r.ExpectObjectStart();
        MorselStats m;
        std::string f;
        while (r.NextKey(&f)) {
          if (f == "index") m.index = r.ParseUint();
          else if (f == "lo") m.lo = r.ParseUint();
          else if (f == "hi") m.hi = r.ParseUint();
          else if (f == "rows") m.rows = r.ParseUint();
          else if (f == "worker") m.worker = static_cast<int>(r.ParseNumber());
          else if (f == "start_ns") m.start_ns = r.ParseNumber();
          else if (f == "dur_ns") m.dur_ns = r.ParseNumber();
          else r.SkipValue();
        }
        prof.run.morsels.push_back(m);
      }
    } else {
      r.SkipValue();
    }
  }
  return prof;
}

std::string CompileTraceToJson(const CompileTrace& trace) {
  std::ostringstream os;
  os << "{\"stages\": [";
  bool first = true;
  for (const StageTiming& st : trace.stages) {
    if (!first) os << ", ";
    first = false;
    os << "{\"stage\": " << JsonQuote(st.stage)
       << ", \"ms\": " << JsonDouble(st.ms) << "}";
  }
  os << "], \"normalize_rules\": [";
  first = true;
  for (const RuleFiring& rf : trace.normalize_rules) {
    if (!first) os << ", ";
    first = false;
    os << "{\"rule\": " << JsonQuote(rf.rule) << ", \"count\": " << rf.count
       << "}";
  }
  os << "], \"unnest_steps\": [";
  first = true;
  for (const UnnestStep& step : trace.unnest_steps) {
    if (!first) os << ", ";
    first = false;
    os << "{\"rule\": " << JsonQuote(step.rule)
       << ", \"description\": " << JsonQuote(step.description) << "}";
  }
  os << "], \"verify_stages\": [";
  first = true;
  for (const VerifyStageSummary& v : trace.verify_stages) {
    if (!first) os << ", ";
    first = false;
    os << "{\"stage\": " << JsonQuote(v.stage) << ", \"checks\": " << v.checks
       << ", \"findings\": " << v.findings
       << ", \"ms\": " << JsonDouble(v.ms) << "}";
  }
  os << "], \"simplify_rewrites\": " << trace.simplify_rewrites
     << ", \"total_ms\": " << JsonDouble(trace.total_ms) << "}";
  return os.str();
}

}  // namespace ldb
