#include "src/obs/introspect.h"

#include "src/runtime/json.h"

namespace ldb {
namespace obs {

std::string ActiveQueriesToJson(const std::vector<ActiveQueryInfo>& queries) {
  std::string out = "[";
  for (size_t i = 0; i < queries.size(); ++i) {
    const ActiveQueryInfo& q = queries[i];
    if (i > 0) out += ", ";
    out += "{\"query_id\": " + std::to_string(q.query_id);
    out += ", \"session\": " + std::to_string(q.session);
    out += ", \"phase\": " + JsonQuote(q.phase);
    out += ", \"elapsed_ms\": " + JsonDouble(q.elapsed_ms);
    out += ", \"rows\": " + std::to_string(q.rows);
    out += ", \"mem_in_use_bytes\": " + std::to_string(q.mem_in_use_bytes);
    out += ", \"mem_peak_bytes\": " + std::to_string(q.mem_peak_bytes);
    out += ", \"remote\": " + JsonQuote(q.remote) + "}";
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
    out += ", \"remote\": " + JsonQuote(r.remote);
    out += ", \"query_hash\": " + JsonQuote(Hex16(r.query_hash));
    out += ", \"status\": " + JsonQuote(r.status);
    out += ", \"error\": " + JsonQuote(r.error);
    out += ", \"plan_cached\": ";
    out += r.plan_cached ? "true" : "false";
    out += ", \"trace_id\": " + JsonQuote(Hex16(r.trace_id));
    out += ", \"queue_wait_ms\": " + JsonDouble(r.queue_wait_ms);
    out += ", \"queue_ms\": " + JsonDouble(r.queue_ms);
    out += ", \"compile_ms\": " + JsonDouble(r.compile_ms);
    out += ", \"exec_ms\": " + JsonDouble(r.exec_ms);
    out += ", \"serialize_ms\": " + JsonDouble(r.serialize_ms);
    out += ", \"rows\": " + std::to_string(r.rows);
    out += ", \"mem_peak_bytes\": " + std::to_string(r.mem_peak_bytes);
    out += ", \"mem_op\": " + JsonQuote(r.mem_op);
    out += ", \"threads\": " + std::to_string(r.threads);
    out += ", \"verify\": " + JsonQuote(r.verify);
    out += ", \"slow\": ";
    out += r.slow ? "true" : "false";
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace obs
}  // namespace ldb
