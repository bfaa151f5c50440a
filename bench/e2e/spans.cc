#include "bench/e2e/spans.h"

#include <sstream>

namespace ldb::e2e {

int SpanLog::Begin(const char* name, const char* layer, uint64_t request) {
  int index = Add(name, layer, request, Now(), 0, current());
  open_.push_back(index);
  return index;
}

void SpanLog::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = Now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int SpanLog::Add(const char* name, const char* layer, uint64_t request,
                 int64_t start_ns, int64_t end_ns, int parent) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

LayerTable BuildLayerTable(const std::vector<const SpanLog*>& logs) {
  LayerTable t;
  for (const SpanLog* log : logs) {
    const std::deque<Span>& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0)
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      const double self_ms = dur_ms - static_cast<double>(child_ns[i]) / 1e6;
      LayerTable::Row& layer = t.by_layer[s.layer];
      layer.self_ms += self_ms;
      ++layer.spans;
      LayerTable::Row& span = t.by_span[std::string(s.layer) + "/" + s.name];
      span.self_ms += self_ms;
      ++span.spans;
      if (s.parent < 0 && s.request != 0) {
        t.request_ms += dur_ms;
        t.request_self_ms += self_ms;
      }
    }
  }
  return t;
}

std::string LayerTable::ToText() const {
  double total = 0;
  for (const auto& [name, row] : by_layer) total += row.self_ms;
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-34s %12s %7s %10s\n", "layer / span",
                "self ms", "share", "spans");
  os << buf;
  for (const auto& [layer, row] : by_layer) {
    std::snprintf(buf, sizeof(buf), "  %-34s %12.3f %6.1f%% %10llu\n",
                  layer.c_str(), row.self_ms,
                  total > 0 ? 100 * row.self_ms / total : 0.0,
                  static_cast<unsigned long long>(row.spans));
    os << buf;
    const std::string prefix = layer + "/";
    for (const auto& [name, span] : by_span) {
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      std::snprintf(buf, sizeof(buf), "    %-32s %12.3f %6.1f%% %10llu\n",
                    name.c_str() + prefix.size(), span.self_ms,
                    total > 0 ? 100 * span.self_ms / total : 0.0,
                    static_cast<unsigned long long>(span.spans));
      os << buf;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "  request spans: %.3f ms, children cover %.2f%%\n",
                request_ms, 100 * coverage());
  os << buf;
  return os.str();
}

std::string LayerTable::ToJson() const {
  std::ostringstream os;
  auto rows = [&os](const std::map<std::string, Row>& m) {
    os << "{";
    bool first = true;
    for (const auto& [name, row] : m) {
      os << (first ? "" : ", ") << "\"" << JsonEscape(name)
         << "\": {\"self_ms\": " << Num(row.self_ms)
         << ", \"spans\": " << row.spans << "}";
      first = false;
    }
    os << "}";
  };
  os << "{\"by_layer\": ";
  rows(by_layer);
  os << ", \"by_span\": ";
  rows(by_span);
  os << ", \"request_ms\": " << Num(request_ms)
     << ", \"coverage\": " << Num(coverage()) << "}";
  return os.str();
}

std::string ChromeTraceJson(const std::vector<const SpanLog*>& logs,
                            uint64_t max_request) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const SpanLog* log : logs) {
    const std::deque<Span>& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.request > max_request) continue;
      os << (first ? "" : ",\n") << "{\"name\": \"" << JsonEscape(s.name)
         << "\", \"cat\": \"" << JsonEscape(s.layer)
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << log->tid()
         << ", \"ts\": " << Num(static_cast<double>(s.start_ns) / 1e3)
         << ", \"dur\": "
         << Num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
         << ", \"args\": {\"request\": " << s.request << ", \"span\": " << i
         << ", \"parent\": " << s.parent << "}}";
      first = false;
    }
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace ldb::e2e
