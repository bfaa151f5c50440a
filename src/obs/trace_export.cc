#include "src/obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "src/core/optimizer.h"
#include "src/runtime/profile.h"

namespace ldb {
namespace obs {

namespace {

constexpr int kCompilePid = 1;
constexpr int kExecutePid = 2;
constexpr int kOperatorPid = 3;

void Escape(const std::string& s, std::ostringstream& os) {
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

std::string Us(double us) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", us < 0 ? 0.0 : us);
  return buf;
}

class EventWriter {
 public:
  explicit EventWriter(std::ostringstream& os) : os_(os) {}

  void Meta(int pid, int tid, const std::string& kind,
            const std::string& name) {
    Sep();
    os_ << "{\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
        << ", \"name\": ";
    Escape(kind, os_);
    os_ << ", \"args\": {\"name\": ";
    Escape(name, os_);
    os_ << "}}";
  }

  void Span(int pid, int tid, const std::string& name, double ts_us,
            double dur_us, const std::string& args_json = "") {
    Sep();
    os_ << "{\"ph\": \"X\", \"pid\": " << pid << ", \"tid\": " << tid
        << ", \"name\": ";
    Escape(name, os_);
    os_ << ", \"ts\": " << Us(ts_us) << ", \"dur\": " << Us(dur_us);
    if (!args_json.empty()) os_ << ", \"args\": " << args_json;
    os_ << "}";
  }

 private:
  void Sep() {
    if (!first_) os_ << ",\n ";
    first_ = false;
  }
  std::ostringstream& os_;
  bool first_ = true;
};

}  // namespace

std::string TraceEventsJson(const QueryProfiler& prof,
                            const CompileTrace* trace) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n ";
  EventWriter w(os);

  if (trace != nullptr && !trace->stages.empty()) {
    w.Meta(kCompilePid, 0, "process_name", "compile");
    w.Meta(kCompilePid, 0, "thread_name", "optimizer");
    double ts = 0;
    for (const StageTiming& st : trace->stages) {
      double dur = st.ms * 1000.0;
      w.Span(kCompilePid, 0, st.stage, ts, dur);
      ts += dur;
    }
  }

  w.Meta(kExecutePid, 0, "process_name", "execute");
  // Group morsels by worker; within one worker morsels ran serially, so
  // sorting by start time yields properly nested (non-overlapping) spans.
  std::map<int, std::vector<const MorselStats*>> by_worker;
  for (const MorselStats& m : prof.morsels) {
    if (m.worker >= 0 && m.dur_ns > 0) by_worker[m.worker].push_back(&m);
  }
  if (by_worker.empty()) {
    w.Meta(kExecutePid, 0, "thread_name", "serial");
    w.Span(kExecutePid, 0, "pipeline", 0, prof.wall_ns / 1000.0);
  } else {
    for (auto& [worker, morsels] : by_worker) {
      w.Meta(kExecutePid, worker, "thread_name",
             "worker " + std::to_string(worker));
      std::sort(morsels.begin(), morsels.end(),
                [](const MorselStats* a, const MorselStats* b) {
                  return a->start_ns < b->start_ns;
                });
      for (const MorselStats* m : morsels) {
        char name[64];
        std::snprintf(name, sizeof name, "morsel %llu [%llu,%llu)",
                      static_cast<unsigned long long>(m->index),
                      static_cast<unsigned long long>(m->lo),
                      static_cast<unsigned long long>(m->hi));
        char args[64];
        std::snprintf(args, sizeof args, "{\"rows\": %llu}",
                      static_cast<unsigned long long>(m->rows));
        w.Span(kExecutePid, worker, name, m->start_ns / 1000.0,
               m->dur_ns / 1000.0, args);
      }
    }
  }

  w.Meta(kOperatorPid, 0, "process_name", "operators (cumulative)");
  for (const OperatorStats* s : prof.Operators()) {
    int tid = s->op_id;
    std::string name = "#";
    name += std::to_string(s->op_id);
    name += ' ';
    name += s->label;
    w.Meta(kOperatorPid, tid, "thread_name", name);
    char args[256];
    std::snprintf(args, sizeof args,
                  "{\"rows_out\": %llu, \"opens\": %llu, \"next_calls\": "
                  "%llu, \"build_rows\": %llu, \"groups\": %llu}",
                  static_cast<unsigned long long>(s->rows_out),
                  static_cast<unsigned long long>(s->opens),
                  static_cast<unsigned long long>(s->next_calls),
                  static_cast<unsigned long long>(s->build_rows),
                  static_cast<unsigned long long>(s->groups));
    w.Span(kOperatorPid, tid, PhysKindName(s->kind), 0,
           (s->open_ns + s->next_ns) / 1000.0, args);
  }

  os << "\n]}";
  return os.str();
}

}  // namespace obs
}  // namespace ldb
