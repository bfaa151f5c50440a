// Tests for end-to-end request tracing (src/obs/trace.h, docs/WIRE.md v2):
// the trace-id codec, the tail-sampling ring's keep/drop policy, the wire
// extensions that carry trace context and the server phase breakdown,
// histogram exemplars in the Prometheus exposition, span parenting across
// concurrent connections, and remote introspection (INTROSPECT) parity
// against the in-process accessors.

#include <algorithm>
#include <set>
#include <string>
#include <thread>
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
// Tail-sampling ring
// ---------------------------------------------------------------------------

obs::RequestTrace MakeTrace(uint64_t id, const std::string& status,
                            double total_ms) {
  obs::RequestTrace t;
  t.trace_id = id;
  t.root_span_id = 1;
  t.status = status;
  t.total_ms = total_ms;
  obs::TraceSpan root;
  root.span_id = 1;
  root.name = "request";
  root.lane = "worker";
  root.dur_ms = total_ms;
  t.spans.push_back(root);
  return t;
}

#if LDB_METRICS_ENABLED

TEST(TraceRingTest, TailSamplingIsDeterministic) {
  // slow_ms unreachable, head sampling off: fast ok requests are dropped,
  // errors and forced traces are kept.
  obs::TraceRing ring(
      obs::TraceRing::Options{/*capacity=*/8, /*slow_ms=*/1e9,
                              /*head_every=*/0});
  EXPECT_FALSE(ring.Submit(MakeTrace(1, "ok", 0.5)));
  EXPECT_TRUE(ring.Submit(MakeTrace(2, "failed", 0.5)));
  EXPECT_TRUE(ring.Submit(MakeTrace(3, "cancelled", 0.5)));
  obs::RequestTrace forced = MakeTrace(4, "ok", 0.5);
  forced.force_sample = true;
  EXPECT_TRUE(ring.Submit(forced));

  EXPECT_EQ(ring.submitted(), 4u);
  EXPECT_EQ(ring.kept(), 3u);
  EXPECT_EQ(ring.dropped(), 1u);

  obs::RequestTrace out;
  EXPECT_FALSE(ring.Find(1, &out));  // dropped
  ASSERT_TRUE(ring.Find(2, &out));
  EXPECT_EQ(out.sample_reason, "error");
  ASSERT_TRUE(ring.Find(4, &out));
  EXPECT_EQ(out.sample_reason, "forced");  // forced outranks ok-drop
}

TEST(TraceRingTest, SlowAndHeadReasons) {
  obs::TraceRing ring(
      obs::TraceRing::Options{/*capacity=*/8, /*slow_ms=*/10,
                              /*head_every=*/1});
  // head_every=1: every submission is head-sampled; slow outranks head.
  ASSERT_TRUE(ring.Submit(MakeTrace(1, "ok", 50)));
  ASSERT_TRUE(ring.Submit(MakeTrace(2, "ok", 0.5)));
  obs::RequestTrace out;
  ASSERT_TRUE(ring.Find(1, &out));
  EXPECT_EQ(out.sample_reason, "slow");
  ASSERT_TRUE(ring.Find(2, &out));
  EXPECT_EQ(out.sample_reason, "head");
}

TEST(TraceRingTest, EvictsOldestWhenFull) {
  obs::TraceRing ring(
      obs::TraceRing::Options{/*capacity=*/2, /*slow_ms=*/1,
                              /*head_every=*/0});
  ASSERT_TRUE(ring.Submit(MakeTrace(1, "ok", 5)));
  ASSERT_TRUE(ring.Submit(MakeTrace(2, "ok", 5)));
  ASSERT_TRUE(ring.Submit(MakeTrace(3, "ok", 5)));
  EXPECT_EQ(ring.kept(), 3u);
  std::vector<obs::RequestTrace> kept = ring.Snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].trace_id, 2u);  // oldest-first, 1 evicted
  EXPECT_EQ(kept[1].trace_id, 3u);
  obs::RequestTrace out;
  EXPECT_FALSE(ring.Find(1, &out));
}

TEST(TraceRingTest, FindZeroSelectsSlowest) {
  obs::TraceRing ring(
      obs::TraceRing::Options{/*capacity=*/4, /*slow_ms=*/1,
                              /*head_every=*/0});
  ASSERT_TRUE(ring.Submit(MakeTrace(1, "ok", 5)));
  ASSERT_TRUE(ring.Submit(MakeTrace(2, "ok", 50)));
  ASSERT_TRUE(ring.Submit(MakeTrace(3, "ok", 20)));
  obs::RequestTrace out;
  ASSERT_TRUE(ring.Find(0, &out));
  EXPECT_EQ(out.trace_id, 2u);
}

TEST(TraceRingTest, AppendSpanAssignsIdsAndExtendsTotal) {
  obs::TraceRing ring(
      obs::TraceRing::Options{/*capacity=*/4, /*slow_ms=*/1,
                              /*head_every=*/0});
  ASSERT_TRUE(ring.Submit(MakeTrace(7, "ok", 5)));

  obs::TraceSpan late;  // span/parent ids left 0: auto-assigned
  late.name = "serialize";
  late.lane = "worker";
  late.start_ms = 5.5;
  late.dur_ms = 2.0;
  EXPECT_TRUE(ring.AppendSpan(7, late));
  EXPECT_FALSE(ring.AppendSpan(999, late));  // not in the ring

  obs::RequestTrace out;
  ASSERT_TRUE(ring.Find(7, &out));
  ASSERT_EQ(out.spans.size(), 2u);
  EXPECT_EQ(out.spans[1].span_id, 2u);
  EXPECT_EQ(out.spans[1].parent_span_id, out.root_span_id);
  EXPECT_DOUBLE_EQ(out.total_ms, 7.5);  // extended to cover the late span
  EXPECT_DOUBLE_EQ(out.spans[0].dur_ms, 7.5);  // and so is the root span
}

TEST(TraceRingTest, ZeroCapacityKeepsNothing) {
  obs::TraceRing ring(
      obs::TraceRing::Options{/*capacity=*/0, /*slow_ms=*/0,
                              /*head_every=*/1});
  EXPECT_FALSE(ring.Submit(MakeTrace(1, "failed", 100)));
  EXPECT_EQ(ring.kept(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
}

#else  // !LDB_METRICS_ENABLED

// With metrics compiled out the ring must be a zero-size no-op: Submit and
// Find compile and return false, the capacity is pinned at 0 regardless of
// the configured option, and the JSON dump is the empty document.
TEST(TraceRingTest, MetricsOffRingIsCompiledOut) {
  obs::TraceRing ring(
      obs::TraceRing::Options{/*capacity=*/64, /*slow_ms=*/0,
                              /*head_every=*/1});
  static_assert(!obs::TraceRing::Enabled());
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_FALSE(ring.Submit(MakeTrace(1, "failed", 100)));
  obs::RequestTrace out;
  EXPECT_FALSE(ring.Find(0, &out));
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.submitted(), 0u);
  EXPECT_EQ(ring.ToJson(),
            obs::TraceRingJson({}, 0, 0, 0, 0));
}

#endif  // LDB_METRICS_ENABLED

TEST(TraceJsonTest, ChromeJsonHasMetadataAndSpans) {
  obs::RequestTrace t = MakeTrace(0xabc, "ok", 5);
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
  obs::RequestTrace t = MakeTrace(0xabc, "ok", 20);
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
  std::string ring = obs::TraceRingJson({t}, 1, 1, 1, 0);
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
      obs::RequestTrace t;
      ASSERT_TRUE(h.svc.trace_ring().Find(id, &t)) << obs::TraceIdHex(id);
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
          EXPECT_EQ(s.span_id, t.root_span_id);
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

  obs::RequestTrace t;
  ASSERT_TRUE(h.svc.trace_ring().Find(r1.exec.trace_id, &t));
  EXPECT_EQ(t.client_parent_span_id, 777u);  // inherited parent
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
  obs::RequestTrace t;
  ASSERT_TRUE(h.svc.trace_ring().Find(last, &t));
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

// The query log's new first-class columns: queue_wait_ms measured from the
// wire read and serialize_ms patched in after the reply went out.
TEST(TraceEndToEndTest, QueryLogRecordsWaitAndSerialize) {
  ServiceOptions sopts;
  sopts.trace_head_every = 1;
  Harness h(/*scale=*/200, sopts);

  net::Client client;
  client.Connect("127.0.0.1", h.port());
  client.Execute("select e.name from e in Employees");
  client.Close();

  std::vector<obs::QueryLogRecord> tail = h.svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_NE(tail[0].trace_id, 0u);
  EXPECT_GE(tail[0].queue_wait_ms, 0.0);
  // The result set is non-empty, so serializing it took measurable time.
  EXPECT_GT(tail[0].serialize_ms, 0.0);
}

#endif  // LDB_METRICS_ENABLED

// ---------------------------------------------------------------------------
// What a served trace contains (in-process requests)
// ---------------------------------------------------------------------------

#if LDB_METRICS_ENABLED

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

const obs::TraceSpan* SpanNamed(const obs::RequestTrace& t,
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
  QueryStats stats;
  svc.Execute(*session,
              "count(select e1 from e1 in Employees, e2 in Employees "
              "where e1.name = e2.name)",
              &stats);

  obs::RequestTrace t;
  ASSERT_TRUE(svc.trace_ring().Find(stats.trace_id, &t));
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

// A client-traced request without the force-sample flag runs the
// uninstrumented engine: the slow-query log gets no profile and the
// per-operator row counters do not move.
TEST(ServedTraceTest, ClientTracedRequestIsNotProfiled) {
  ServiceOptions sopts;
  sopts.slow_query_ms = 1e-9;  // every query is slow
  Database db = MakeDb(200);
  QueryService svc(db, sopts);
  auto session = svc.OpenSession();
  obs::TraceContext ctx;
  ctx.trace_id = obs::MintTraceId();
  session->set_trace(ctx);
  QueryStats stats;
  svc.Execute(*session, "count(select e from e in Employees)", &stats);
  EXPECT_EQ(stats.trace_id, ctx.trace_id);

  std::vector<obs::QueryLogRecord> tail = svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_TRUE(tail[0].slow);
  EXPECT_TRUE(tail[0].profile_json.empty()) << tail[0].profile_json;
  EXPECT_EQ(OperatorRowsTotal(svc), 0);
  obs::RequestTrace t;
  ASSERT_TRUE(svc.trace_ring().Find(ctx.trace_id, &t));
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

  obs::TraceContext ctx;
  ctx.trace_id = obs::MintTraceId();
  ctx.flags = obs::TraceContext::kForceSample;
  session->set_trace(ctx);
  svc.Execute(*session, oql);
  obs::RequestTrace t;
  ASSERT_TRUE(svc.trace_ring().Find(ctx.trace_id, &t));
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

#endif  // LDB_METRICS_ENABLED

}  // namespace
}  // namespace ldb
