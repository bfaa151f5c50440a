#include "src/runtime/profile.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "src/core/optimizer.h"
#include "src/runtime/error.h"

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
  workers.insert(workers.end(), other.workers.begin(), other.workers.end());
  morsels.insert(morsels.end(), other.morsels.begin(), other.morsels.end());
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
// JSON emission. Hand-rolled (no external deps); doubles print with %.17g so
// ProfileFromJson(ProfileToJson(p)) reproduces every value bit-exactly.
// ---------------------------------------------------------------------------

namespace {

void JsonEscape(const std::string& s, std::ostringstream& os) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void JsonDouble(double d, std::ostringstream& os) {
  if (!std::isfinite(d)) {
    os << 0;  // JSON has no Inf/NaN; profiles never produce them anyway
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  os << buf;
}

// Minimal recursive-descent JSON reader — just enough for the profile and
// trace schemas this file emits (objects, arrays, strings, numbers).
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  void ExpectObjectStart() { Skip(); Expect('{'); }
  bool NextKey(std::string* key) {
    Skip();
    if (Peek() == '}') { ++pos_; return false; }
    if (Peek() == ',') ++pos_;
    Skip();
    *key = ParseString();
    Skip();
    Expect(':');
    return true;
  }
  void ExpectArrayStart() { Skip(); Expect('['); }
  bool NextElement() {
    Skip();
    if (Peek() == ']') { ++pos_; return false; }
    if (Peek() == ',') { ++pos_; Skip(); }
    return true;
  }

  std::string ParseString() {
    Skip();
    Expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char e = s_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) throw ParseError("bad \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else throw ParseError("bad \\u escape");
            }
            out += static_cast<char>(v);  // profiles only escape control chars
            break;
          }
          default: out += e;
        }
      } else {
        out += c;
      }
    }
    Expect('"');
    return out;
  }

  double ParseNumber() {
    Skip();
    size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::strchr("+-.eE", s_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) throw ParseError("expected number in profile JSON");
    return std::strtod(s_.c_str() + start, nullptr);
  }

  uint64_t ParseUint() { return static_cast<uint64_t>(ParseNumber()); }

  void SkipValue() {
    Skip();
    char c = Peek();
    if (c == '"') { ParseString(); return; }
    if (c == '{') {
      ExpectObjectStart();
      std::string k;
      while (NextKey(&k)) SkipValue();
      return;
    }
    if (c == '[') {
      ExpectArrayStart();
      while (NextElement()) SkipValue();
      return;
    }
    ParseNumber();
  }

 private:
  char Peek() const {
    if (pos_ >= s_.size()) throw ParseError("truncated profile JSON");
    return s_[pos_];
  }
  void Skip() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  void Expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) {
      throw ParseError(std::string("profile JSON: expected '") + c + "'");
    }
    ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

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
  std::ostringstream os;
  os << "{\"threads\": " << prof.threads_used
     << ", \"morsel_size\": " << prof.morsel_size << ", \"mode\": ";
  JsonEscape(prof.parallel_mode.empty() ? "serial" : prof.parallel_mode, os);
  os << ", \"wall_ns\": ";
  JsonDouble(prof.wall_ns, os);
  os << ", \"plan_cached\": " << prof.plan_cached
     << ", \"cache_hits\": " << prof.cache_hits
     << ", \"cache_misses\": " << prof.cache_misses
     << ", \"cache_evictions\": " << prof.cache_evictions;
  os << ", \"operators\": [";
  bool first = true;
  for (const OperatorStats* s : prof.Operators()) {
    if (!first) os << ", ";
    first = false;
    os << "{\"id\": " << s->op_id << ", \"kind\": ";
    JsonEscape(PhysKindName(s->kind), os);
    os << ", \"label\": ";
    JsonEscape(s->label, os);
    os << ", \"opens\": " << s->opens << ", \"next_calls\": " << s->next_calls
       << ", \"rows_out\": " << s->rows_out << ", \"open_ns\": ";
    JsonDouble(s->open_ns, os);
    os << ", \"next_ns\": ";
    JsonDouble(s->next_ns, os);
    os << ", \"build_rows\": " << s->build_rows << ", \"groups\": " << s->groups
       << ", \"short_circuits\": " << s->short_circuits
       << ", \"mem_bytes\": " << s->mem_bytes << "}";
  }
  os << "], \"workers\": [";
  first = true;
  for (const WorkerStats& w : prof.workers) {
    if (!first) os << ", ";
    first = false;
    os << "{\"worker\": " << w.worker << ", \"morsels\": " << w.morsels
       << ", \"rows\": " << w.rows << ", \"busy_ns\": ";
    JsonDouble(w.busy_ns, os);
    os << "}";
  }
  os << "], \"morsels\": [";
  first = true;
  for (const MorselStats& m : prof.morsels) {
    if (!first) os << ", ";
    first = false;
    os << "{\"index\": " << m.index << ", \"lo\": " << m.lo
       << ", \"hi\": " << m.hi << ", \"rows\": " << m.rows
       << ", \"worker\": " << m.worker << ", \"start_ns\": ";
    JsonDouble(m.start_ns, os);
    os << ", \"dur_ns\": ";
    JsonDouble(m.dur_ns, os);
    os << "}";
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
      prof.threads_used = static_cast<int>(r.ParseNumber());
    } else if (key == "morsel_size") {
      prof.morsel_size = r.ParseUint();
    } else if (key == "mode") {
      prof.parallel_mode = r.ParseString();
    } else if (key == "wall_ns") {
      prof.wall_ns = r.ParseNumber();
    } else if (key == "plan_cached") {
      prof.plan_cached = r.ParseUint();
    } else if (key == "cache_hits") {
      prof.cache_hits = r.ParseUint();
    } else if (key == "cache_misses") {
      prof.cache_misses = r.ParseUint();
    } else if (key == "cache_evictions") {
      prof.cache_evictions = r.ParseUint();
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
        prof.workers.push_back(w);
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
        prof.morsels.push_back(m);
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
    os << "{\"stage\": ";
    JsonEscape(st.stage, os);
    os << ", \"ms\": ";
    JsonDouble(st.ms, os);
    os << "}";
  }
  os << "], \"normalize_rules\": [";
  first = true;
  for (const RuleFiring& rf : trace.normalize_rules) {
    if (!first) os << ", ";
    first = false;
    os << "{\"rule\": ";
    JsonEscape(rf.rule, os);
    os << ", \"count\": " << rf.count << "}";
  }
  os << "], \"unnest_steps\": [";
  first = true;
  for (const UnnestStep& step : trace.unnest_steps) {
    if (!first) os << ", ";
    first = false;
    os << "{\"rule\": ";
    JsonEscape(step.rule, os);
    os << ", \"description\": ";
    JsonEscape(step.description, os);
    os << "}";
  }
  os << "], \"verify_stages\": [";
  first = true;
  for (const VerifyStageSummary& v : trace.verify_stages) {
    if (!first) os << ", ";
    first = false;
    os << "{\"stage\": ";
    JsonEscape(v.stage, os);
    os << ", \"checks\": " << v.checks << ", \"findings\": " << v.findings
       << ", \"ms\": ";
    JsonDouble(v.ms, os);
    os << "}";
  }
  os << "], \"simplify_rewrites\": " << trace.simplify_rewrites
     << ", \"total_ms\": ";
  JsonDouble(trace.total_ms, os);
  os << "}";
  return os.str();
}

}  // namespace ldb
