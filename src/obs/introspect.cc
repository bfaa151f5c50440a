#include "src/obs/introspect.h"

#include <cinttypes>
#include <cstdio>

namespace ldb {
namespace obs {

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return std::string(buf, 16);
}

}  // namespace

std::string ActiveQueriesToJson(const std::vector<ActiveQueryInfo>& queries) {
  std::string out = "[";
  for (size_t i = 0; i < queries.size(); ++i) {
    const ActiveQueryInfo& q = queries[i];
    if (i > 0) out += ", ";
    out += "{\"query_id\": " + std::to_string(q.query_id);
    out += ", \"session\": " + std::to_string(q.session);
    out += ", \"phase\": \"" + Escape(q.phase) + "\"";
    out += ", \"elapsed_ms\": " + Num(q.elapsed_ms);
    out += ", \"rows\": " + std::to_string(q.rows);
    out += ", \"mem_in_use_bytes\": " + std::to_string(q.mem_in_use_bytes);
    out += ", \"mem_peak_bytes\": " + std::to_string(q.mem_peak_bytes);
    out += ", \"remote\": \"" + Escape(q.remote) + "\"}";
  }
  out += "]";
  return out;
}

std::string QueryLogToJson(const std::vector<QueryLogRecord>& records) {
  std::string out = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    const QueryLogRecord& r = records[i];
    if (i > 0) out += ",\n";
    out += "{\"id\": " + std::to_string(r.id);
    out += ", \"session\": " + std::to_string(r.session);
    out += ", \"remote\": \"" + Escape(r.remote) + "\"";
    out += ", \"query_hash\": \"" + Hex16(r.query_hash) + "\"";
    out += ", \"status\": \"" + Escape(r.status) + "\"";
    out += ", \"error\": \"" + Escape(r.error) + "\"";
    out += ", \"plan_cached\": ";
    out += r.plan_cached ? "true" : "false";
    out += ", \"trace_id\": \"" + Hex16(r.trace_id) + "\"";
    out += ", \"queue_wait_ms\": " + Num(r.queue_wait_ms);
    out += ", \"queue_ms\": " + Num(r.queue_ms);
    out += ", \"compile_ms\": " + Num(r.compile_ms);
    out += ", \"exec_ms\": " + Num(r.exec_ms);
    out += ", \"serialize_ms\": " + Num(r.serialize_ms);
    out += ", \"rows\": " + std::to_string(r.rows);
    out += ", \"mem_peak_bytes\": " + std::to_string(r.mem_peak_bytes);
    out += ", \"mem_op\": \"" + Escape(r.mem_op) + "\"";
    out += ", \"threads\": " + std::to_string(r.threads);
    out += ", \"verify\": \"" + Escape(r.verify) + "\"";
    out += ", \"slow\": ";
    out += r.slow ? "true" : "false";
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace obs
}  // namespace ldb
