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
    if (i > 0) out += ",\n";
    out += QueryLogRecordToJson(records[i], /*with_spans=*/false);
  }
  out += "]";
  return out;
}

}  // namespace obs
}  // namespace ldb
