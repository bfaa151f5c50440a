// Tests for end-to-end request tracing (src/obs/trace.h, the trace ring in
// src/obs/query_log.h, docs/WIRE.md v2): the trace-id codec, the trace
// ring's keep/drop policy and post-hoc serialize patch, the wire
// extensions that carry trace context and the server phase breakdown,
// histogram exemplars in the Prometheus exposition, span parenting across
// concurrent connections, and remote introspection (INTROSPECT) parity
// against the in-process accessors.

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/obs/introspect.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/query_service.h"
#include "src/workload/company.h"

namespace ldb {
namespace {

using net::ExecReply;
using net::ExecuteRequest;
using net::Frame;
using net::FrameDecoder;
using net::IntrospectReply;
using net::IntrospectRequest;
using net::Opcode;
using net::PrepareReply;
using net::PrepareRequest;

// ---------------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------------

TEST(TraceIdTest, MintedIdsAreNonzeroAndDistinct) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t id = obs::MintTraceId();
    EXPECT_NE(id, 0u);
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(TraceIdTest, HexRoundTrip) {
  EXPECT_EQ(obs::TraceIdHex(0), "0000000000000000");
  EXPECT_EQ(obs::TraceIdHex(0xdeadbeef01020304ull), "deadbeef01020304");
  EXPECT_EQ(obs::TraceIdFromHex("deadbeef01020304"), 0xdeadbeef01020304ull);
  EXPECT_EQ(obs::TraceIdFromHex(obs::TraceIdHex(12345)), 12345u);
  EXPECT_EQ(obs::TraceIdFromHex(""), 0u);
  EXPECT_EQ(obs::TraceIdFromHex("not hex at all!!"), 0u);
  EXPECT_EQ(obs::TraceIdFromHex("deadbeef010203045"), 0u);  // 17 digits
}

// ---------------------------------------------------------------------------
// The trace ring: the query log's tail-sampled records
// ---------------------------------------------------------------------------

obs::QueryLogRecord MakeRecord(uint64_t trace_id, const std::string& status,
                               double total_ms) {
  obs::QueryLogRecord rec;
  rec.trace_id = trace_id;
  rec.status = status;
  rec.total_ms = total_ms;
  obs::TraceSpan root;
  root.span_id = 1;
  root.name = "request";
  root.lane = "worker";
  root.dur_ms = total_ms;
  rec.spans.push_back(root);
  return rec;
}

// Appends as the service does, with the log's own slow verdict; returns
// whether the trace ring kept the record.
bool Submit(obs::QueryLog* log, obs::QueryLogRecord rec) {
  rec.slow = log->IsSlow(rec.total_ms);
  log->Append(&rec);
  return !rec.sample_reason.empty();
}

#if LDB_METRICS_ENABLED

TEST(TraceRingTest, TailSamplingIsDeterministic) {
  // slow_ms unreachable, head sampling off: fast ok requests are dropped,
  // errors and forced traces are kept.
  obs::QueryLog log(/*capacity=*/16, /*slow_ms=*/1e9, /*kept_capacity=*/8,
                    /*head_every=*/0);
  EXPECT_FALSE(Submit(&log, MakeRecord(1, "ok", 0.5)));
  EXPECT_TRUE(Submit(&log, MakeRecord(2, "failed", 0.5)));
  EXPECT_TRUE(Submit(&log, MakeRecord(3, "cancelled", 0.5)));
  obs::QueryLogRecord forced = MakeRecord(4, "ok", 0.5);
  forced.force_sample = true;
  EXPECT_TRUE(Submit(&log, forced));

  EXPECT_EQ(log.appended(), 4u);
  EXPECT_EQ(log.kept_count(), 3u);
  EXPECT_NE(log.KeptToJson().find(
                "\"capacity\":8,\"submitted\":4,\"kept\":3,\"dropped\":1,"),
            std::string::npos)
      << log.KeptToJson();

  obs::QueryLogRecord out;
  EXPECT_FALSE(log.Find(1, &out));  // dropped
  ASSERT_TRUE(log.Find(2, &out));
  EXPECT_EQ(out.sample_reason, "error");
  ASSERT_TRUE(log.Find(4, &out));
  EXPECT_EQ(out.sample_reason, "forced");  // forced outranks ok-drop
  // Every record stays among the recent ones, kept or not, without spans.
  std::vector<obs::QueryLogRecord> tail = log.Tail(4);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail[0].sample_reason, "");
  EXPECT_EQ(tail[3].sample_reason, "forced");
  for (const obs::QueryLogRecord& r : tail) EXPECT_TRUE(r.spans.empty());
}

TEST(TraceRingTest, SlowAndHeadReasons) {
  obs::QueryLog log(/*capacity=*/16, /*slow_ms=*/10, /*kept_capacity=*/8,
                    /*head_every=*/1);
  // head_every=1: every record is head-sampled; slow outranks head.
  ASSERT_TRUE(Submit(&log, MakeRecord(1, "ok", 50)));
  ASSERT_TRUE(Submit(&log, MakeRecord(2, "ok", 0.5)));
  obs::QueryLogRecord out;
  ASSERT_TRUE(log.Find(1, &out));
  EXPECT_EQ(out.sample_reason, "slow");
  EXPECT_TRUE(out.slow);
  ASSERT_TRUE(log.Find(2, &out));
  EXPECT_EQ(out.sample_reason, "head");
  EXPECT_EQ(log.slow_count(), 1u);
}

TEST(TraceRingTest, EvictsOldestWhenFull) {
  obs::QueryLog log(/*capacity=*/16, /*slow_ms=*/1, /*kept_capacity=*/2,
                    /*head_every=*/0);
  ASSERT_TRUE(Submit(&log, MakeRecord(1, "ok", 5)));
  ASSERT_TRUE(Submit(&log, MakeRecord(2, "ok", 5)));
  ASSERT_TRUE(Submit(&log, MakeRecord(3, "ok", 5)));
  EXPECT_EQ(log.kept_count(), 3u);
  std::vector<obs::QueryLogRecord> kept = log.KeptRecords();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].trace_id, 2u);  // oldest-first, 1 evicted
  EXPECT_EQ(kept[1].trace_id, 3u);
  EXPECT_EQ(kept[1].spans.size(), 1u);  // kept records carry their spans
  obs::QueryLogRecord out;
  EXPECT_FALSE(log.Find(1, &out));
}

TEST(TraceRingTest, FindZeroSelectsSlowest) {
  obs::QueryLog log(/*capacity=*/16, /*slow_ms=*/1, /*kept_capacity=*/4,
                    /*head_every=*/0);
  ASSERT_TRUE(Submit(&log, MakeRecord(1, "ok", 5)));
  ASSERT_TRUE(Submit(&log, MakeRecord(2, "ok", 50)));
  ASSERT_TRUE(Submit(&log, MakeRecord(3, "ok", 20)));
  obs::QueryLogRecord out;
  ASSERT_TRUE(log.Find(0, &out));
  EXPECT_EQ(out.trace_id, 2u);
}

TEST(TraceRingTest, RecordSerializeAppendsSpanAndExtendsTotal) {
  obs::QueryLog log(/*capacity=*/16, /*slow_ms=*/1, /*kept_capacity=*/4,
                    /*head_every=*/0);
  obs::QueryLogRecord rec = MakeRecord(7, "ok", 5);
  rec.slow = log.IsSlow(rec.total_ms);
  log.Append(&rec);
  ASSERT_EQ(rec.sample_reason, "slow");

  EXPECT_TRUE(log.RecordSerialize(rec.id, /*start_ms=*/5.5, /*dur_ms=*/2.0));
  EXPECT_FALSE(log.RecordSerialize(999, 5.5, 2.0));  // never appended

  obs::QueryLogRecord out;
  ASSERT_TRUE(log.Find(7, &out));
  EXPECT_DOUBLE_EQ(out.serialize_ms, 2.0);
  ASSERT_EQ(out.spans.size(), 2u);
  EXPECT_EQ(out.spans[1].name, "serialize");
  EXPECT_EQ(out.spans[1].span_id, 2u);
  EXPECT_EQ(out.spans[1].parent_span_id, out.spans[0].span_id);
  EXPECT_DOUBLE_EQ(out.total_ms, 7.5);  // extended to cover the late span
  EXPECT_DOUBLE_EQ(out.spans[0].dur_ms, 7.5);  // and so is the root span
  // The recent copy agrees on the times.
  std::vector<obs::QueryLogRecord> tail = log.Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_DOUBLE_EQ(tail[0].serialize_ms, 2.0);
  EXPECT_DOUBLE_EQ(tail[0].total_ms, 7.5);
}

TEST(TraceRingTest, ZeroCapacityKeepsNothing) {
  obs::QueryLog log(/*capacity=*/16, /*slow_ms=*/0, /*kept_capacity=*/0,
                    /*head_every=*/1);
  EXPECT_FALSE(Submit(&log, MakeRecord(1, "failed", 100)));
  EXPECT_EQ(log.kept_count(), 0u);
  EXPECT_TRUE(log.KeptRecords().empty());
  EXPECT_EQ(log.Tail(1).size(), 1u);
}

#else  // !LDB_METRICS_ENABLED

// With metrics compiled out the trace ring must be a zero-size no-op: the
// capacity is pinned at 0 regardless of the configured one, nothing is
// sampled or found, and the JSON dump is the empty document. The recent
// records are kept as usual.
TEST(TraceRingTest, MetricsOffRingIsCompiledOut) {
  obs::QueryLog log(/*capacity=*/16, /*slow_ms=*/0, /*kept_capacity=*/64,
                    /*head_every=*/1);
  static_assert(!obs::QueryLog::KeepsTraces());
  EXPECT_EQ(log.kept_capacity(), 0u);
  EXPECT_FALSE(Submit(&log, MakeRecord(1, "failed", 100)));
  obs::QueryLogRecord out;
  EXPECT_FALSE(log.Find(0, &out));
  EXPECT_TRUE(log.KeptRecords().empty());
  EXPECT_EQ(log.kept_count(), 0u);
  EXPECT_EQ(log.KeptToJson(),
            "{\"capacity\":0,\"submitted\":0,\"kept\":0,\"dropped\":0,"
            "\"traces\":[]}\n");
  EXPECT_EQ(log.Tail(1).size(), 1u);
}

#endif  // LDB_METRICS_ENABLED

TEST(TraceJsonTest, ChromeJsonHasMetadataAndSpans) {
  obs::QueryLogRecord t = MakeRecord(0xabc, "ok", 5);
  obs::TraceSpan child;
  child.span_id = 2;
  child.parent_span_id = 1;
  child.name = "execute";
  child.lane = "morsel-0";
  child.start_ms = 1;
  child.dur_ms = 3;
  t.spans.push_back(child);
  std::string json = obs::TraceToChromeJson(t);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"execute\""), std::string::npos);
  EXPECT_NE(json.find("morsel-0"), std::string::npos);
  EXPECT_NE(json.find(obs::TraceIdHex(0xabc)), std::string::npos);
}

// Offsets print at nanosecond resolution however late the span. With six
// significant digits, a compile span at 12.345678 ms lasting 1.234567 ms
// rendered as ending after the execute span that follows it began.
TEST(TraceJsonTest, AdjacentSpansStayAdjacentPastTenMilliseconds) {
  obs::QueryLogRecord t = MakeRecord(0xabc, "ok", 20);
  obs::TraceSpan compile;
  compile.span_id = 2;
  compile.parent_span_id = 1;
  compile.name = "compile";
  compile.lane = "worker";
  compile.start_ms = 12.345678;
  compile.dur_ms = 1.234567;
  obs::TraceSpan execute = compile;
  execute.span_id = 3;
  execute.name = "execute";
  execute.start_ms = compile.start_ms + compile.dur_ms;
  execute.dur_ms = 5;
  t.spans.push_back(compile);
  t.spans.push_back(execute);

  std::string chrome = obs::TraceToChromeJson(t);
  EXPECT_NE(chrome.find("\"ts\":12345.678,\"dur\":1234.567,"),
            std::string::npos)
      << chrome;
  EXPECT_NE(chrome.find("\"ts\":13580.245,"), std::string::npos) << chrome;
  std::string ring = obs::QueryLogRecordToJson(t, /*with_spans=*/true);
  EXPECT_NE(ring.find("\"start_ms\":12.345678,\"dur_ms\":1.234567}"),
            std::string::npos)
      << ring;
  EXPECT_NE(ring.find("\"start_ms\":13.580245,"), std::string::npos) << ring;
}

// ---------------------------------------------------------------------------
// Wire extensions (docs/WIRE.md v2)
// ---------------------------------------------------------------------------

std::string PayloadOf(const std::string& frame_bytes) {
  FrameDecoder dec;
  dec.Feed(frame_bytes);
  Frame f;
  EXPECT_TRUE(dec.Next(&f));
  return f.payload;
}

TEST(TraceWireTest, ExecuteRequestCarriesTraceContext) {
  ExecuteRequest req;
  req.mode = ExecuteRequest::kAdhoc;
  req.oql = "count(select e from e in Employees)";
  req.fetch_hint = 16;
  req.trace_id = 0x1122334455667788ull;
  req.parent_span_id = 42;
  req.trace_flags = obs::TraceContext::kForceSample;

  ExecuteRequest back = ExecuteRequest::Parse(PayloadOf(req.Encode()));
  EXPECT_EQ(back.oql, req.oql);
  EXPECT_EQ(back.trace_id, req.trace_id);
  EXPECT_EQ(back.parent_span_id, 42u);
  EXPECT_EQ(back.trace_flags, obs::TraceContext::kForceSample);
}

TEST(TraceWireTest, UntracedExecuteOmitsTheExtension) {
  // trace_id == 0 must encode to the v1 byte layout (no trailing context),
  // and a v1 payload must parse with the trace fields zeroed — both
  // directions of cross-version interop.
  ExecuteRequest traced;
  traced.oql = "q";
  traced.trace_id = 1;
  ExecuteRequest plain;
  plain.oql = "q";
  EXPECT_EQ(traced.Encode().size(), plain.Encode().size() + 17);

  ExecuteRequest back = ExecuteRequest::Parse(PayloadOf(plain.Encode()));
  EXPECT_EQ(back.trace_id, 0u);
  EXPECT_EQ(back.parent_span_id, 0u);
  EXPECT_EQ(back.trace_flags, 0);
}

TEST(TraceWireTest, PrepareRequestCarriesTraceContext) {
  PrepareRequest req;
  req.oql = "select e from e in Employees where e.dno = $1";
  req.trace_id = 99;
  req.parent_span_id = 7;
  PrepareRequest back = PrepareRequest::Parse(PayloadOf(req.Encode()));
  EXPECT_EQ(back.oql, req.oql);
  EXPECT_EQ(back.trace_id, 99u);
  EXPECT_EQ(back.parent_span_id, 7u);

  PrepareRequest plain;
  plain.oql = req.oql;
  EXPECT_EQ(PrepareRequest::Parse(PayloadOf(plain.Encode())).trace_id, 0u);
}

TEST(TraceWireTest, ExecReplyRoundTripsPhaseBreakdown) {
  ExecReply rep;
  rep.rows = 5;
  rep.queue_ms = 1.5;
  rep.compile_ms = 2.5;
  rep.exec_ms = 3.5;
  rep.queue_wait_ms = 0.25;
  rep.serialize_ms = 0.125;
  rep.trace_id = 0xfeedface0000beefull;

  std::string payload = PayloadOf(rep.Encode());
  ExecReply back = ExecReply::Parse(payload);
  EXPECT_EQ(back.rows, 5u);
  EXPECT_DOUBLE_EQ(back.queue_wait_ms, 0.25);
  EXPECT_DOUBLE_EQ(back.serialize_ms, 0.125);
  EXPECT_EQ(back.trace_id, rep.trace_id);

  // A v1 EXEC_OK (24 bytes shorter) must still parse, extension zeroed.
  ExecReply v1 = ExecReply::Parse(payload.substr(0, payload.size() - 24));
  EXPECT_EQ(v1.rows, 5u);
  EXPECT_DOUBLE_EQ(v1.exec_ms, 3.5);
  EXPECT_DOUBLE_EQ(v1.queue_wait_ms, 0);
  EXPECT_EQ(v1.trace_id, 0u);
}

TEST(TraceWireTest, IntrospectRoundTrip) {
  IntrospectRequest req;
  req.kind = IntrospectRequest::kTrace;
  req.arg = 12;
  req.trace_id = 0xabcdef;
  IntrospectRequest back = IntrospectRequest::Parse(PayloadOf(req.Encode()));
  EXPECT_EQ(back.kind, IntrospectRequest::kTrace);
  EXPECT_EQ(back.arg, 12u);
  EXPECT_EQ(back.trace_id, 0xabcdefu);

  IntrospectReply rep;
  rep.kind = IntrospectRequest::kMetrics;
  rep.json = "{\"x\": [1, 2]}";
  IntrospectReply rback = IntrospectReply::Parse(PayloadOf(rep.Encode()));
  EXPECT_EQ(rback.kind, IntrospectRequest::kMetrics);
  EXPECT_EQ(rback.json, rep.json);
}

// ---------------------------------------------------------------------------
// Histogram exemplars
// ---------------------------------------------------------------------------

#if LDB_METRICS_ENABLED

TEST(TraceExemplarTest, BucketExemplarSurvivesToPrometheusText) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("req_ms", "request latency");
  h->Observe(3.0);                          // no exemplar: untraced
  h->Observe(5.0, 0xabad1dea00000001ull);   // traced observation

  std::string text = reg.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# {trace_id=\"abad1dea00000001\"} 5"),
            std::string::npos)
      << text;

  // The JSON snapshot carries the same exemplar and round-trips.
  std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("abad1dea00000001"), std::string::npos);
  obs::MetricsSnapshot back = obs::SnapshotFromJson(json);
  EXPECT_EQ(back.ToJson(), json);
}

#endif  // LDB_METRICS_ENABLED

// ---------------------------------------------------------------------------
// End-to-end over real sockets
// ---------------------------------------------------------------------------

Database MakeDb(int scale) {
  workload::CompanyParams p;
  p.n_employees = scale;
  p.n_departments = std::max(4, scale / 40);
  p.n_managers = std::max(2, scale / 100);
  return workload::MakeCompanyDatabase(p);
}

struct Harness {
  explicit Harness(int scale = 200, ServiceOptions sopts = {},
                   net::ServerOptions nopts = {})
      : db(MakeDb(scale)), svc(db, sopts), server(svc, [&nopts] {
          nopts.port = 0;  // ephemeral: no port races between tests
          return nopts;
        }()) {
    server.Start();
  }
  ~Harness() { server.Shutdown(); }

  uint16_t port() const { return server.bound_port(); }

  Database db;
  QueryService svc;
  net::Server server;
};

#if LDB_METRICS_ENABLED

// Four concurrent connections each run traced queries; every request's
// trace must land in the ring with a well-formed span tree (exactly one
// root, every parent resolving, the serialize span appended post-reply)
// and the four connections' traces must not bleed into one another.
TEST(TraceEndToEndTest, SpanParentingAcrossConcurrentConnections) {
  ServiceOptions sopts;
  sopts.trace_head_every = 1;  // keep every trace regardless of outcome
  Harness h(/*scale=*/200, sopts);

  constexpr int kConns = 4;
  constexpr int kQueriesPerConn = 3;
  std::vector<std::vector<uint64_t>> ids(kConns);
  std::vector<std::thread> threads;
  threads.reserve(kConns);
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&h, &ids, c] {
      net::Client client;
      client.Connect("127.0.0.1", h.port());
      for (int q = 0; q < kQueriesPerConn; ++q) {
        net::ClientResult r = client.Execute(
            "select distinct e.name from e in Employees where e.dno = " +
            std::to_string(q));
        EXPECT_NE(r.exec.trace_id, 0u);
        EXPECT_EQ(r.exec.trace_id, client.last_trace_id());
        EXPECT_GE(r.exec.queue_wait_ms, 0.0);
        ids[c].push_back(client.last_trace_id());
      }
      client.Close();
    });
  }
  for (std::thread& t : threads) t.join();

  std::set<uint64_t> distinct;
  for (const auto& conn_ids : ids) {
    for (uint64_t id : conn_ids) {
      distinct.insert(id);
      obs::QueryLogRecord t;
      ASSERT_TRUE(h.svc.query_log().Find(id, &t)) << obs::TraceIdHex(id);
      EXPECT_TRUE(t.client_context);
      EXPECT_EQ(t.status, "ok");

      // Exactly one root; every other span's parent resolves in-trace.
      std::set<uint64_t> span_ids;
      int roots = 0;
      for (const obs::TraceSpan& s : t.spans) {
        EXPECT_TRUE(span_ids.insert(s.span_id).second)
            << "duplicate span id " << s.span_id;
        roots += s.parent_span_id == 0;
      }
      EXPECT_EQ(roots, 1);
      std::set<std::string> names;
      for (const obs::TraceSpan& s : t.spans) {
        names.insert(s.name);
        if (s.parent_span_id != 0) {
          EXPECT_TRUE(span_ids.count(s.parent_span_id))
              << "span " << s.name << " has dangling parent";
          EXPECT_NE(s.parent_span_id, s.span_id);
        } else {
          EXPECT_EQ(s.span_id, 1u);
          EXPECT_EQ(s.name, "request");
        }
      }
      EXPECT_TRUE(names.count("admission"));
      EXPECT_TRUE(names.count("compile"));
      EXPECT_TRUE(names.count("execute"));
      // The reply serializes the first batch before EXEC_OK goes out, so
      // by the time the client saw the reply the span had been appended.
      EXPECT_TRUE(names.count("serialize"));
      // Wire-served request: the origin is the socket read, so the io lane
      // precedes the worker spans.
      EXPECT_TRUE(names.count("wire-queue"));
      EXPECT_GT(t.total_ms, 0.0);
    }
  }
  EXPECT_EQ(distinct.size(),
            static_cast<size_t>(kConns * kQueriesPerConn));
}

// PREPARE's trace context becomes the connection default: later EXECUTEs
// that carry no context of their own get a FRESH server-minted trace id
// with the prepared parent/flags attached.
TEST(TraceEndToEndTest, PrepareContextIsInheritedWithFreshIds) {
  ServiceOptions sopts;
  sopts.trace_head_every = 1;
  Harness h(/*scale=*/200, sopts);

  net::Client client;
  client.Connect("127.0.0.1", h.port());
  client.set_trace_requests(false);  // EXECUTEs carry no context themselves

  PrepareRequest prep;
  prep.oql = "count(select e from e in Employees)";
  prep.trace_id = obs::MintTraceId();
  prep.parent_span_id = 777;
  prep.trace_flags = obs::TraceContext::kForceSample;
  client.SendRaw(prep.Encode());
  Frame f = client.ReadFrame();
  ASSERT_EQ(f.opcode, Opcode::kPrepareOk);
  uint64_t handle = PrepareReply::Parse(f.payload).handle;

  net::ClientResult r1 = client.ExecutePrepared(handle);
  net::ClientResult r2 = client.ExecutePrepared(handle);
  EXPECT_NE(r1.exec.trace_id, 0u);
  EXPECT_NE(r2.exec.trace_id, 0u);
  EXPECT_NE(r1.exec.trace_id, r2.exec.trace_id);  // fresh id per query
  EXPECT_NE(r1.exec.trace_id, prep.trace_id);

  obs::QueryLogRecord t;
  ASSERT_TRUE(h.svc.query_log().Find(r1.exec.trace_id, &t));
  EXPECT_EQ(t.parent_span_id, 777u);  // inherited parent
  EXPECT_TRUE(t.force_sample);               // inherited flags
  client.Close();
}

// INTROSPECT must return exactly what the in-process accessors return —
// the remote path is a transport, not a second implementation.
TEST(TraceEndToEndTest, IntrospectMatchesInProcessAccessors) {
  ServiceOptions sopts;
  sopts.trace_head_every = 1;
  Harness h(/*scale=*/200, sopts);

  net::Client client;
  client.Connect("127.0.0.1", h.port());
  for (int i = 0; i < 3; ++i) {
    client.Execute("count(select e from e in Employees)");
  }
  uint64_t last = client.last_trace_id();
  ASSERT_NE(last, 0u);

  // Query log: exact string parity while the server is idle.
  EXPECT_EQ(client.Introspect(IntrospectRequest::kQueryLog, 32),
            obs::QueryLogToJson(h.svc.query_log().Tail(32)));

  // Active queries: idle server, both sides empty.
  EXPECT_EQ(client.Introspect(IntrospectRequest::kActiveQueries),
            obs::ActiveQueriesToJson(h.svc.ActiveQueries()));

  // Trace by id: byte-for-byte the ring's Chrome JSON.
  obs::QueryLogRecord t;
  ASSERT_TRUE(h.svc.query_log().Find(last, &t));
  EXPECT_EQ(client.Introspect(IntrospectRequest::kTrace, 0, last),
            obs::TraceToChromeJson(t));

  // Metrics: the snapshot races against the server's own frame counters
  // (the INTROSPECT round-trip itself moves ldb_net_* instruments), so
  // compare the stable query counters through the JSON round-trip rather
  // than the raw bytes.
  obs::MetricsSnapshot remote =
      obs::SnapshotFromJson(client.Introspect(IntrospectRequest::kMetrics));
  double remote_ok = 0;
  for (const obs::MetricSample& s : remote.samples) {
    if (s.name == "ldb_queries_ok_total") remote_ok += s.value;
  }
  EXPECT_DOUBLE_EQ(remote_ok, 3.0);

  // Unknown kinds and missing traces surface as STATE errors, not hangs.
  EXPECT_THROW(client.Introspect(/*kind=*/200), net::RemoteError);
  EXPECT_THROW(client.Introspect(IntrospectRequest::kTrace, 0,
                                 /*trace_id=*/0xdeadbeefdeadbeefull),
               net::RemoteError);
  client.Close();
}

// One request, one record: EXEC_OK, the recent query-log record and the
// kept trace agree on the trace id, the cache outcome and every phase time
// (queue_wait_ms measured from the wire read, serialize_ms patched in after
// the reply went out), and the kept trace's phase spans last those times.
TEST(TraceEndToEndTest, QueryLogRecordsWaitAndSerialize) {
  Harness h(/*scale=*/200);

  net::Client client;
  client.Connect("127.0.0.1", h.port());
  client.set_trace_flags(obs::TraceContext::kForceSample);
  net::ClientResult r = client.Execute("select e.name from e in Employees");
  client.Close();
  const net::ExecReply& exec = r.exec;

  std::vector<obs::QueryLogRecord> tail = h.svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  obs::QueryLogRecord kept;
  ASSERT_TRUE(h.svc.query_log().Find(exec.trace_id, &kept));
  EXPECT_EQ(kept.sample_reason, "forced");
  EXPECT_NE(exec.trace_id, 0u);
  EXPECT_GE(exec.queue_wait_ms, 0.0);
  // The result set is non-empty, so serializing it took measurable time.
  EXPECT_GT(exec.serialize_ms, 0.0);
  for (const obs::QueryLogRecord& rec : {tail[0], kept}) {
    EXPECT_EQ(rec.id, kept.id);
    EXPECT_EQ(rec.trace_id, exec.trace_id);
    EXPECT_EQ(rec.plan_cached, exec.plan_cached != 0);
    EXPECT_DOUBLE_EQ(rec.queue_wait_ms, exec.queue_wait_ms);
    EXPECT_DOUBLE_EQ(rec.queue_ms, exec.queue_ms);
    EXPECT_DOUBLE_EQ(rec.compile_ms, exec.compile_ms);
    EXPECT_DOUBLE_EQ(rec.exec_ms, exec.exec_ms);
    EXPECT_DOUBLE_EQ(rec.serialize_ms, exec.serialize_ms);
    EXPECT_DOUBLE_EQ(rec.total_ms, kept.total_ms);
  }
  const std::pair<const char*, double> phases[] = {
      {"wire-queue", exec.queue_wait_ms}, {"admission", exec.queue_ms},
      {"compile", exec.compile_ms},       {"execute", exec.exec_ms},
      {"serialize", exec.serialize_ms}};
  for (const auto& [name, ms] : phases) {
    const obs::TraceSpan* span = nullptr;
    for (const obs::TraceSpan& s : kept.spans) {
      if (s.name == name) span = &s;
    }
    ASSERT_NE(span, nullptr) << name;
    EXPECT_DOUBLE_EQ(span->dur_ms, ms) << name;
  }
  EXPECT_DOUBLE_EQ(kept.spans.front().dur_ms, kept.total_ms);
}

#endif  // LDB_METRICS_ENABLED

// ---------------------------------------------------------------------------
// What a served trace contains (in-process requests)
// ---------------------------------------------------------------------------

#if LDB_METRICS_ENABLED

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

const obs::TraceSpan* SpanNamed(const obs::QueryLogRecord& t,
                                const std::string& name) {
  for (const obs::TraceSpan& s : t.spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double OperatorRowsTotal(const QueryService& svc) {
  double total = 0;
  for (const obs::MetricSample& s : svc.metrics().Snapshot().samples) {
    if (s.name == "ldb_operator_rows_total") total += s.value;
  }
  return total;
}

// An untraced parallel request gets its morsel spans from the run record,
// without a profiler. Each sits inside execute, after the prebuild of the
// shared hash table: a 4000-row driver at morsel 256 makes 16 morsels.
TEST(ServedTraceTest, UntracedParallelRequestHasMorselSpans) {
  ServiceOptions sopts;
  sopts.trace_head_every = 1;
  Database db = MakeDb(4000);
  QueryService svc(db, sopts);
  SessionOptions so;
  so.n_threads = 4;
  so.morsel_size = 256;
  auto session = svc.OpenSession(so);
  obs::QueryLogRecord rec;
  svc.Execute(*session,
              "count(select e1 from e1 in Employees, e2 in Employees "
              "where e1.name = e2.name)",
              &rec);

  obs::QueryLogRecord t;
  ASSERT_TRUE(svc.query_log().Find(rec.trace_id, &t));
  EXPECT_FALSE(t.client_context);
  const obs::TraceSpan* exec = SpanNamed(t, "execute");
  const obs::TraceSpan* prebuild = SpanNamed(t, "prebuild");
  ASSERT_NE(exec, nullptr);
  ASSERT_NE(prebuild, nullptr);
  EXPECT_EQ(prebuild->parent_span_id, exec->span_id);
  size_t morsels = 0;
  for (const obs::TraceSpan& s : t.spans) {
    EXPECT_FALSE(HasPrefix(s.lane, "op-")) << s.name;  // nothing profiled
    if (!HasPrefix(s.lane, "morsel-")) continue;
    ++morsels;
    EXPECT_EQ(s.parent_span_id, exec->span_id);
    EXPECT_GE(s.start_ms, prebuild->start_ms + prebuild->dur_ms) << s.name;
    EXPECT_LE(s.start_ms + s.dur_ms, exec->start_ms + exec->dur_ms) << s.name;
  }
  EXPECT_EQ(morsels, 16u);
}

// A plan-cache miss lowers its plan through the optimizer, so its compile
// span has children for physical planning and slot compilation, and the
// compile trace records the slot-plan verification. A hit compiles nothing
// and its compile span has no children.
TEST(ServedTraceTest, CacheMissCompileSpanCoversLowering) {
  ServiceOptions sopts;
  sopts.trace_head_every = 1;
  sopts.optimizer.verify_plans = true;
  Database db = MakeDb(200);
  QueryService svc(db, sopts);
  auto session = svc.OpenSession();
  Statement handle =
      QueryService::Prepare("count(select e from e in Employees)");
  obs::QueryLogRecord miss, hit;
  svc.Execute(*session, handle, &miss);
  svc.Execute(*session, handle.oql, &hit);
  ASSERT_FALSE(miss.plan_cached);
  ASSERT_TRUE(hit.plan_cached);

  auto compile_children = [&](uint64_t trace_id) {
    obs::QueryLogRecord t;
    EXPECT_TRUE(svc.query_log().Find(trace_id, &t));
    const obs::TraceSpan* compile = SpanNamed(t, "compile");
    std::set<std::string> names;
    for (const obs::TraceSpan& s : t.spans) {
      if (compile != nullptr && s.parent_span_id == compile->span_id)
        names.insert(s.name);
    }
    return names;
  };
  const std::set<std::string> children = compile_children(miss.trace_id);
  EXPECT_EQ(children.count("compile:unnest"), 1u);
  EXPECT_EQ(children.count("compile:physical"), 1u);
  EXPECT_EQ(children.count("compile:slot-compile"), 1u);
  EXPECT_TRUE(compile_children(hit.trace_id).empty());

  const CompileTrace& trace = *handle.plan->compiled.trace;
  ASSERT_FALSE(trace.verify_stages.empty());
  EXPECT_EQ(trace.verify_stages.back().stage, "slot-plan");
}

// A client-traced request without the force-sample flag runs the
// uninstrumented engine: the slow-query log gets no profile and the
// per-operator row counters do not move.
TEST(ServedTraceTest, ClientTracedRequestIsNotProfiled) {
  ServiceOptions sopts;
  sopts.slow_query_ms = 1e-9;  // every query is slow
  Database db = MakeDb(200);
  QueryService svc(db, sopts);
  auto session = svc.OpenSession();
  const uint64_t trace_id = obs::MintTraceId();
  obs::QueryLogRecord rec;
  rec.trace_id = trace_id;
  svc.Execute(*session, "count(select e from e in Employees)", &rec);
  EXPECT_EQ(rec.trace_id, trace_id);
  EXPECT_TRUE(rec.client_context);

  std::vector<obs::QueryLogRecord> tail = svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_TRUE(tail[0].slow);
  EXPECT_TRUE(tail[0].profile_json.empty()) << tail[0].profile_json;
  EXPECT_EQ(OperatorRowsTotal(svc), 0);
  obs::QueryLogRecord t;
  ASSERT_TRUE(svc.query_log().Find(trace_id, &t));
  EXPECT_TRUE(t.client_context);
}

// The force-sample flag is how a traced request buys per-operator timing:
// its trace carries one span per operator, each on its own lane, and the
// profile feeds the slow-query log and the operator-row counters.
TEST(ServedTraceTest, ForceSampledRequestCarriesOperatorSpans) {
  ServiceOptions sopts;
  sopts.slow_query_ms = 1e-9;
  Database db = MakeDb(200);
  QueryService svc(db, sopts);
  auto session = svc.OpenSession();
  const std::string oql =
      "select distinct struct(D: d.name, n: count(select e from e in "
      "Employees where e.dno = d.dno)) from d in Departments";
  QueryProfiler prof;  // an explicitly profiled run counts the operators
  svc.Execute(*session, oql, nullptr, &prof);
  ASSERT_FALSE(prof.Operators().empty());
  const double rows_before = OperatorRowsTotal(svc);

  obs::QueryLogRecord rec;
  rec.trace_id = obs::MintTraceId();
  rec.force_sample = true;
  svc.Execute(*session, oql, &rec);
  obs::QueryLogRecord t;
  ASSERT_TRUE(svc.query_log().Find(rec.trace_id, &t));
  EXPECT_EQ(t.sample_reason, "forced");
  const obs::TraceSpan* exec = SpanNamed(t, "execute");
  ASSERT_NE(exec, nullptr);
  std::set<std::string> lanes;
  for (const obs::TraceSpan& s : t.spans) {
    if (!HasPrefix(s.lane, "op-")) continue;
    EXPECT_EQ(s.parent_span_id, exec->span_id);
    EXPECT_TRUE(lanes.insert(s.lane).second) << "two spans on " << s.lane;
  }
  EXPECT_EQ(lanes.size(), prof.Operators().size());
  EXPECT_FALSE(svc.query_log().Tail(1)[0].profile_json.empty());
  EXPECT_GT(OperatorRowsTotal(svc), rows_before);
}

// All requests of one W3C Trace Context trace share its trace id. Two kept
// requests with one id stay two records: reply serialization is patched in
// by record id, so it lands on its own request, and Find returns the newest.
TEST(ServedTraceTest, SharedTraceIdSerializeLandsOnItsOwnRecord) {
  Database db = MakeDb(200);
  QueryService svc(db);
  auto session = svc.OpenSession();
  const uint64_t trace_id = obs::MintTraceId();
  obs::QueryLogRecord first, second;
  for (obs::QueryLogRecord* rec : {&first, &second}) {
    rec->trace_id = trace_id;
    rec->force_sample = true;
    svc.Execute(*session, "count(select e from e in Employees)", rec);
  }
  ASSERT_NE(first.id, second.id);
  ASSERT_TRUE(svc.query_log().RecordSerialize(first.id, first.total_ms, 0.5));

  std::vector<obs::QueryLogRecord> kept = svc.query_log().KeptRecords();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].id, first.id);
  EXPECT_DOUBLE_EQ(kept[0].serialize_ms, 0.5);
  const obs::TraceSpan* serialize = SpanNamed(kept[0], "serialize");
  ASSERT_NE(serialize, nullptr);
  EXPECT_DOUBLE_EQ(serialize->dur_ms, 0.5);
  EXPECT_EQ(kept[1].id, second.id);
  EXPECT_EQ(kept[1].serialize_ms, 0.0);
  EXPECT_EQ(SpanNamed(kept[1], "serialize"), nullptr);

  obs::QueryLogRecord found;
  ASSERT_TRUE(svc.query_log().Find(trace_id, &found));
  EXPECT_EQ(found.id, second.id);
}

// A request that waited 60 ms before reaching the service is slow under the
// default 50 ms threshold, which applies to the total from the trace origin:
// the log record (with its plan), the slow counter and the trace ring all
// read the one verdict.
TEST(ServedTraceTest, WireQueueWaitCountsTowardSlow) {
  Database db = MakeDb(200);
  QueryService svc(db);
  ASSERT_EQ(svc.options().slow_query_ms, 50);
  auto session = svc.OpenSession();
  obs::QueryLogRecord rec;
  rec.queue_wait_ms = 60;
  svc.Execute(*session, "count(select e from e in Employees)", &rec);
  EXPECT_GE(rec.total_ms, 60.0);

  std::vector<obs::QueryLogRecord> tail = svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_TRUE(tail[0].slow);
  EXPECT_FALSE(tail[0].plan_text.empty());
  double slow_total = 0;
  for (const obs::MetricSample& s : svc.metrics().Snapshot().samples) {
    if (s.name == "ldb_slow_queries_total") slow_total += s.value;
  }
  EXPECT_EQ(slow_total, 1);
  obs::QueryLogRecord kept;
  ASSERT_TRUE(svc.query_log().Find(rec.trace_id, &kept));
  EXPECT_EQ(kept.sample_reason, "slow");
}

#endif  // LDB_METRICS_ENABLED

}  // namespace
}  // namespace ldb
