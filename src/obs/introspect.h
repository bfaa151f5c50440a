// JSON renderings of the service's introspection surfaces — the active-query
// registry and the query log — shared by the wire INTROSPECT opcode
// (docs/WIRE.md), the bench report's active_queries splice, and the SIGUSR1
// snapshot dump. One canonical serializer per surface keeps the remote view
// byte-identical to the in-process one (tests/trace_test.cc pins the
// parity), which is what makes "fetch it over the wire" trustworthy.
//
// Layering: obs — may be included by service/net; never by runtime.

#ifndef LAMBDADB_OBS_INTROSPECT_H_
#define LAMBDADB_OBS_INTROSPECT_H_

#include <string>
#include <vector>

#include "src/obs/query_log.h"
#include "src/obs/resource.h"

namespace ldb {
namespace obs {

/// `[{"query_id": ..., "session": ..., "phase": "...", ...}, ...]` — the
/// shape check_observability.py validates in the bench report.
std::string ActiveQueriesToJson(const std::vector<ActiveQueryInfo>& queries);

/// `[{"id": ..., "status": "...", "queue_wait_ms": ..., ...}, ...]`,
/// oldest-first: QueryLogRecordToJson without spans, the same writer as the
/// trace ring dump's.
std::string QueryLogToJson(const std::vector<QueryLogRecord>& records);

}  // namespace obs
}  // namespace ldb

#endif  // LAMBDADB_OBS_INTROSPECT_H_
