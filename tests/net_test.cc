// Tests for the network front end (src/net/): the wire codec byte-for-byte
// (framing, torn reads, hostile lengths, fuzzed input) and the server
// end-to-end over real sockets (concurrent clients, prepared handles and
// their plan-cache traffic, paging, cancellation, deadlines, admission
// backpressure, graceful drain, and all of these at once from concurrent
// clients).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/runtime/serialize.h"
#include "src/service/query_service.h"
#include "src/workload/company.h"

namespace ldb {
namespace {

using net::BindRequest;
using net::ErrorCode;
using net::ErrorReply;
using net::ExecReply;
using net::ExecuteRequest;
using net::FetchRequest;
using net::Frame;
using net::FrameDecoder;
using net::HelloReply;
using net::HelloRequest;
using net::Opcode;
using net::PrepareReply;
using net::PrepareRequest;
using net::RowsReply;
using net::WireError;

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(NetWireTest, FrameRoundTripEveryMessageType) {
  HelloRequest hello;
  hello.version = 1;
  hello.deadline_ms = 2500;
  hello.memory_budget_bytes = 1u << 30;
  hello.n_threads = 3;
  hello.morsel_size = 512;

  HelloReply hello_ok;
  hello_ok.version = 1;
  hello_ok.session_id = 42;
  hello_ok.server_info = "test server";

  PrepareRequest prep;
  prep.oql = "select e from e in Employees where e.dno = $1";
  PrepareReply prep_ok;
  prep_ok.handle = 7;

  BindRequest bind;
  bind.clear_first = 0;
  bind.Add("1", Value::Int(3));
  bind.Add("name", Value::Str("Ann \"quoted\" \n newline"));

  ExecuteRequest exec;
  exec.mode = ExecuteRequest::kPrepared;
  exec.handle = 7;
  exec.deadline_ms = 1000;
  exec.fetch_hint = 64;

  ExecReply exec_ok;
  exec_ok.rows = 123;
  exec_ok.scalar = 0;
  exec_ok.plan_cached = 1;
  exec_ok.queue_ms = 0.25;
  exec_ok.compile_ms = 1.5;
  exec_ok.exec_ms = 9.75;

  FetchRequest fetch;
  fetch.max_rows = 99;

  RowsReply rows;
  rows.has_more = 1;
  rows.rows = {"1", "\"two\"", "<a=3, b=\"x\">"};

  ErrorReply err;
  err.code = ErrorCode::kAdmission;
  err.message = "queue full";

  // Concatenate every frame, then decode the stream and re-parse each.
  std::string stream = hello.Encode() + hello_ok.Encode() + prep.Encode() +
                       prep_ok.Encode() + bind.Encode() + exec.Encode() +
                       exec_ok.Encode() + fetch.Encode() + rows.Encode() +
                       err.Encode() +
                       EncodeFrame(Opcode::kCancel, std::string()) +
                       EncodeFrame(Opcode::kGoodbye, std::string()) +
                       EncodeFrame(Opcode::kBindOk, std::string());

  FrameDecoder dec;
  dec.Feed(stream);
  std::vector<Frame> frames;
  Frame f;
  while (dec.Next(&f)) frames.push_back(f);
  ASSERT_EQ(frames.size(), 13u);
  EXPECT_EQ(dec.buffered(), 0u);

  HelloRequest h2 = HelloRequest::Parse(frames[0].payload);
  EXPECT_EQ(h2.version, hello.version);
  EXPECT_EQ(h2.deadline_ms, hello.deadline_ms);
  EXPECT_EQ(h2.memory_budget_bytes, hello.memory_budget_bytes);
  EXPECT_EQ(h2.n_threads, hello.n_threads);
  EXPECT_EQ(h2.morsel_size, hello.morsel_size);
  // The reserved trailing byte goes out as 1, the value older v2 servers
  // read as "slot engine".
  ASSERT_EQ(frames[0].payload.size(), 29u);
  EXPECT_EQ(frames[0].payload.back(), '\x01');

  HelloReply ho2 = HelloReply::Parse(frames[1].payload);
  EXPECT_EQ(ho2.version, hello_ok.version);
  EXPECT_EQ(ho2.session_id, hello_ok.session_id);
  EXPECT_EQ(ho2.server_info, hello_ok.server_info);

  EXPECT_EQ(PrepareRequest::Parse(frames[2].payload).oql, prep.oql);
  EXPECT_EQ(PrepareReply::Parse(frames[3].payload).handle, prep_ok.handle);

  BindRequest b2 = BindRequest::Parse(frames[4].payload);
  EXPECT_EQ(b2.clear_first, bind.clear_first);
  ASSERT_EQ(b2.params.size(), 2u);
  EXPECT_EQ(b2.params[0].first, "1");
  EXPECT_EQ(ValueFromText(b2.params[0].second), Value::Int(3));
  EXPECT_EQ(ValueFromText(b2.params[1].second),
            Value::Str("Ann \"quoted\" \n newline"));

  ExecuteRequest e2 = ExecuteRequest::Parse(frames[5].payload);
  EXPECT_EQ(e2.mode, exec.mode);
  EXPECT_EQ(e2.handle, exec.handle);
  EXPECT_EQ(e2.deadline_ms, exec.deadline_ms);
  EXPECT_EQ(e2.fetch_hint, exec.fetch_hint);

  ExecReply eo2 = ExecReply::Parse(frames[6].payload);
  EXPECT_EQ(eo2.rows, exec_ok.rows);
  EXPECT_EQ(eo2.plan_cached, exec_ok.plan_cached);
  EXPECT_DOUBLE_EQ(eo2.queue_ms, exec_ok.queue_ms);
  EXPECT_DOUBLE_EQ(eo2.exec_ms, exec_ok.exec_ms);

  EXPECT_EQ(FetchRequest::Parse(frames[7].payload).max_rows, fetch.max_rows);

  RowsReply r2 = RowsReply::Parse(frames[8].payload);
  EXPECT_EQ(r2.has_more, rows.has_more);
  EXPECT_EQ(r2.rows, rows.rows);

  ErrorReply er2 = ErrorReply::Parse(frames[9].payload);
  EXPECT_EQ(er2.code, err.code);
  EXPECT_EQ(er2.message, err.message);

  EXPECT_EQ(frames[10].opcode, Opcode::kCancel);
  EXPECT_TRUE(frames[10].payload.empty());
  EXPECT_EQ(frames[11].opcode, Opcode::kGoodbye);
  EXPECT_EQ(frames[12].opcode, Opcode::kBindOk);
}

TEST(NetWireTest, DecoderHandlesTornReadsOneByteAtATime) {
  PrepareRequest prep;
  prep.oql = "select d.name from d in Departments";
  ErrorReply err;
  err.code = ErrorCode::kEval;
  err.message = "boom";
  std::string stream = prep.Encode() + err.Encode();

  FrameDecoder dec;
  std::vector<Frame> frames;
  for (char byte : stream) {
    dec.Feed(&byte, 1);
    Frame f;
    while (dec.Next(&f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(PrepareRequest::Parse(frames[0].payload).oql, prep.oql);
  EXPECT_EQ(ErrorReply::Parse(frames[1].payload).message, "boom");
}

TEST(NetWireTest, DecoderRejectsOversizedLengthWithoutAllocating) {
  // length = 0xFFFFFFFF: must throw before any payload allocation.
  FrameDecoder dec;
  dec.Feed("\xff\xff\xff\xff", 4);
  Frame f;
  EXPECT_THROW(dec.Next(&f), WireError);
  EXPECT_TRUE(dec.error());
  // The decoder stays poisoned even for subsequent valid bytes.
  dec.Feed(EncodeFrame(Opcode::kCancel, std::string()));
  EXPECT_THROW(dec.Next(&f), WireError);
}

TEST(NetWireTest, DecoderRejectsZeroLength) {
  FrameDecoder dec;
  dec.Feed(std::string(4, '\0'));
  Frame f;
  EXPECT_THROW(dec.Next(&f), WireError);
  EXPECT_TRUE(dec.error());
}

TEST(NetWireTest, DecoderHonorsTightenedCeiling) {
  FrameDecoder dec(/*max_frame_bytes=*/16);
  // A 100-byte payload is fine globally but above this decoder's ceiling.
  std::string frame = EncodeFrame(Opcode::kPrepare, std::string(100, 'x'));
  dec.Feed(frame);
  Frame f;
  EXPECT_THROW(dec.Next(&f), WireError);
}

TEST(NetWireTest, EncoderRefusesOversizedFrame) {
  std::string huge(net::kMaxFrameBytes, 'x');
  EXPECT_THROW(EncodeFrame(Opcode::kPrepare, huge), WireError);
}

TEST(NetWireTest, TrailingPayloadBytesAreIgnoredForVersioning) {
  HelloRequest hello;
  hello.deadline_ms = 77;
  std::string frame = hello.Encode();
  // A future peer appends a field: strip the frame header, extend the
  // payload, and re-frame.
  std::string payload = frame.substr(5);
  payload += "future-field";
  HelloRequest parsed = HelloRequest::Parse(payload);
  EXPECT_EQ(parsed.deadline_ms, 77u);
}

TEST(NetWireTest, TruncatedPayloadThrows) {
  HelloRequest hello;
  std::string payload = hello.Encode().substr(5);
  payload.resize(payload.size() / 2);
  EXPECT_THROW(HelloRequest::Parse(payload), WireError);
  EXPECT_THROW(ExecReply::Parse(std::string("\x01", 1)), WireError);
  EXPECT_THROW(ErrorReply::Parse(std::string()), WireError);
}

TEST(NetWireTest, LyingInnerCountsRejectedWithoutAllocationBlowup) {
  // A BIND payload claiming 2^31 parameters in a 9-byte body must be
  // rejected by bounds checks, not by attempting the reserve.
  net::PayloadWriter w;
  w.U8(1);
  w.U32(0x7FFFFFFF);
  EXPECT_THROW(BindRequest::Parse(w.bytes()), WireError);

  // Same for ROWS, and for a string whose inner length outruns the payload.
  net::PayloadWriter w2;
  w2.U8(0);
  w2.U32(0x40000000);
  EXPECT_THROW(RowsReply::Parse(w2.bytes()), WireError);

  net::PayloadWriter w3;
  w3.U32(0x10000000);  // string length far beyond the remaining bytes
  w3.U8('x');
  EXPECT_THROW(PrepareRequest::Parse(w3.bytes()), WireError);
}

TEST(NetWireTest, FuzzedFramesNeverCrashTheDecoderOrParsers) {
  // Deterministic LCG fuzz: random byte blobs through the decoder, and any
  // frames that survive framing through every message parser. The invariant
  // is "WireError or success", never a crash or runaway allocation.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto rnd = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(state >> 33);
  };
  for (int iter = 0; iter < 300; ++iter) {
    FrameDecoder dec;
    std::string blob;
    size_t len = rnd() % 512;
    blob.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      blob.push_back(static_cast<char>(rnd() & 0xFF));
    }
    // Occasionally make the length prefix plausible so payload parsers run.
    if (iter % 3 == 0 && blob.size() >= 5) {
      uint32_t plausible = 1 + rnd() % 64;
      std::memcpy(blob.data(), &plausible, 4);
    }
    dec.Feed(blob);
    try {
      Frame f;
      while (dec.Next(&f)) {
        for (int which = 0; which < 10; ++which) {
          try {
            switch (which) {
              case 0: HelloRequest::Parse(f.payload); break;
              case 1: HelloReply::Parse(f.payload); break;
              case 2: PrepareRequest::Parse(f.payload); break;
              case 3: PrepareReply::Parse(f.payload); break;
              case 4: BindRequest::Parse(f.payload); break;
              case 5: ExecuteRequest::Parse(f.payload); break;
              case 6: ExecReply::Parse(f.payload); break;
              case 7: FetchRequest::Parse(f.payload); break;
              case 8: RowsReply::Parse(f.payload); break;
              case 9: ErrorReply::Parse(f.payload); break;
            }
          } catch (const WireError&) {
            // Expected for malformed payloads.
          }
        }
      }
    } catch (const WireError&) {
      EXPECT_TRUE(dec.error());
    }
  }
}

TEST(NetWireTest, ValueTextRoundTrip) {
  Value v = Value::Bag(
      {Value::Tuple({{"name", Value::Str("Ann \"q\"")},
                     {"age", Value::Int(7)},
                     {"tags", Value::List({Value::Real(1.5), Value::Null()})}}),
       Value::Tuple({{"name", Value::Str("Bo")},
                     {"age", Value::Int(9)},
                     {"tags", Value::List({})}})});
  EXPECT_EQ(ValueFromText(ValueToText(v)), v);
  EXPECT_EQ(ValueFromText(ValueToText(Value::Bool(true))), Value::Bool(true));
  // Trailing bytes after a complete value are an error.
  EXPECT_THROW(ValueFromText(ValueToText(Value::Int(1)) + " 2"), ParseError);
}

// ---------------------------------------------------------------------------
// Server end-to-end (real sockets on an ephemeral port)
// ---------------------------------------------------------------------------

Database MakeDb(int scale) {
  workload::CompanyParams p;
  p.n_employees = scale;
  p.n_departments = std::max(4, scale / 40);
  p.n_managers = std::max(2, scale / 100);
  return workload::MakeCompanyDatabase(p);
}

// Inequality-only triple join: no equi predicate, so the planner has to
// nested-loop it — reliably slow at moderate scales, the workhorse for the
// cancel/deadline/drain tests.
const char* const kSlowQuery =
    "count(select e.name from e in Employees, m in Managers, "
    "e2 in Employees where e.age > m.age and e2.salary > e.salary)";

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

class NetServerTest : public ::testing::Test {};

TEST_F(NetServerTest, AdhocExecuteMatchesInProcessResults) {
  Harness h;
  const std::string oql =
      "select distinct struct(D: d.name, total: sum(select e.salary "
      "from e in Employees where e.dno = d.dno)) from d in Departments";

  net::Client client;
  client.Connect("127.0.0.1", h.port());
  EXPECT_GT(client.session_id(), 0u);
  net::ClientResult remote = client.Execute(oql);

  auto session = h.svc.OpenSession();
  Value local = h.svc.Execute(*session, oql);

  ASSERT_TRUE(local.is_collection());
  ASSERT_EQ(remote.rows.size(), local.AsElems().size());
  EXPECT_EQ(remote.exec.rows, local.AsElems().size());
  // EXEC_OK carries the server's phase timings (docs/WIRE.md).
  EXPECT_GT(remote.exec.exec_ms, 0.0);
  EXPECT_GE(remote.exec.queue_wait_ms, 0.0);
  for (size_t i = 0; i < remote.rows.size(); ++i) {
    EXPECT_EQ(remote.rows[i], local.AsElems()[i]) << "row " << i;
  }
  // Second run: the plan must come from the shared cache.
  net::ClientResult again = client.Execute(oql);
  EXPECT_EQ(again.exec.plan_cached, 1);
  client.Close();
}

TEST_F(NetServerTest, ScalarResultTravelsAsOneRow) {
  Harness h;
  net::Client client;
  client.Connect("127.0.0.1", h.port());
  net::ClientResult r =
      client.Execute("count(select e from e in Employees)");
  EXPECT_TRUE(r.scalar());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0], Value::Int(200));
}

// Plan-cache lookups as the service counts them, plus the exported
// ldb_plan_cache_{hits,misses}_total series when metrics are compiled in.
struct LookupCounts {
  uint64_t hits = 0, misses = 0, metric_hits = 0, metric_misses = 0;
};

LookupCounts Lookups(QueryService& svc) {
  LookupCounts n;
  const PlanCacheStats cs = svc.cache_stats();
  n.hits = cs.hits;
  n.misses = cs.misses;
  n.metric_hits = svc.metrics()
                      .GetCounter("ldb_plan_cache_hits_total",
                                  "Plan-cache lookup hits")
                      ->Value();
  n.metric_misses = svc.metrics()
                        .GetCounter("ldb_plan_cache_misses_total",
                                    "Plan-cache lookup misses (compiles)")
                        ->Value();
  return n;
}

// Expects exactly `hits` / `misses` more lookups than `before`.
void ExpectLookupDelta(QueryService& svc, const LookupCounts& before,
                       uint64_t hits, uint64_t misses) {
  const LookupCounts now = Lookups(svc);
  EXPECT_EQ(now.hits, before.hits + hits);
  EXPECT_EQ(now.misses, before.misses + misses);
  if (obs::MetricsRegistry::Enabled()) {
    EXPECT_EQ(now.metric_hits, before.metric_hits + hits);
    EXPECT_EQ(now.metric_misses, before.metric_misses + misses);
  }
}

TEST_F(NetServerTest, PreparedHandlesLookUpThePlanCacheOnlyOnce) {
  Harness h;
  const std::string by_dno =
      "select distinct e.name from e in Employees where e.dno = $1";
  const std::string total = "sum(select e.salary from e in Employees)";
  net::Client client;
  client.Connect("127.0.0.1", h.port());
  const uint64_t a = client.Prepare(by_dno);
  const uint64_t b = client.Prepare(total);
  client.Bind({{"1", Value::Int(1)}});

  LookupCounts before = Lookups(h.svc);
  EXPECT_EQ(client.ExecutePrepared(a).exec.plan_cached, 0);  // miss, compile
  EXPECT_EQ(client.ExecutePrepared(b).exec.plan_cached, 0);
  ExpectLookupDelta(h.svc, before, 0, 2);

  before = Lookups(h.svc);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.ExecutePrepared(a).exec.plan_cached, 1);
    EXPECT_EQ(client.ExecutePrepared(b).exec.plan_cached, 1);
  }
  ExpectLookupDelta(h.svc, before, 0, 0);  // bound: no lookups at all

  // Another connection's handle for the same text: one hit, then none.
  net::Client other;
  other.Connect("127.0.0.1", h.port());
  const uint64_t a2 = other.Prepare(by_dno);
  other.Bind({{"1", Value::Int(1)}});
  before = Lookups(h.svc);
  net::ClientResult first = other.ExecutePrepared(a2);
  EXPECT_EQ(first.exec.plan_cached, 1);
  other.ExecutePrepared(a2);
  ExpectLookupDelta(h.svc, before, 1, 0);

  // A catalog update moves the stamp: each handle re-resolves once.
  Catalog cat = Catalog::FromDatabase(h.db);
  cat.SetExtentCardinality("Employees", 4321);
  h.svc.UpdateCatalog(cat);
  before = Lookups(h.svc);
  net::ClientResult after = client.ExecutePrepared(a);
  EXPECT_EQ(after.exec.plan_cached, 0);
  EXPECT_EQ(client.ExecutePrepared(a).exec.plan_cached, 1);
  ExpectLookupDelta(h.svc, before, 0, 1);
  EXPECT_EQ(after.rows, first.rows);

  auto session = h.svc.OpenSession();
  session->Bind("1", Value::Int(1));
  const Value local = h.svc.Execute(*session, by_dno);
  ASSERT_EQ(after.rows.size(), local.AsElems().size());
  for (size_t i = 0; i < after.rows.size(); ++i) {
    EXPECT_EQ(after.rows[i], local.AsElems()[i]);
  }
}

TEST_F(NetServerTest, PreparedHandleTableIsCapped) {
  Harness h;
  net::Client client;
  client.Connect("127.0.0.1", h.port());
  std::vector<uint64_t> handles;
  for (size_t i = 0; i < net::kMaxPreparedPerConn; ++i) {
    handles.push_back(client.Prepare(
        "count(select e from e in Employees where e.age > " +
        std::to_string(i) + ")"));
  }
  EXPECT_THROW(
      {
        try {
          client.Prepare("count(select e from e in Employees)");
        } catch (const net::RemoteError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kState);
          throw;
        }
      },
      net::RemoteError);
  // The connection and its earlier handles keep working.
  EXPECT_EQ(client.ExecutePrepared(handles.front()).rows,
            client.Execute("count(select e from e in Employees "
                           "where e.age > 0)")
                .rows);
  EXPECT_EQ(client.ExecutePrepared(handles.back()).rows.size(), 1u);
}

TEST_F(NetServerTest, PreparedStatementsWithBindings) {
  Harness h;
  net::Client client;
  client.Connect("127.0.0.1", h.port());
  uint64_t handle = client.Prepare(
      "select distinct e.name from e in Employees where e.dno = $1");

  auto session = h.svc.OpenSession();
  for (int dno = 0; dno < 3; ++dno) {
    client.Bind({{"1", Value::Int(dno)}});
    net::ClientResult remote = client.ExecutePrepared(handle);
    session->Bind("1", Value::Int(dno));
    Value local = h.svc.Execute(
        *session,
        "select distinct e.name from e in Employees where e.dno = $1");
    ASSERT_EQ(remote.rows.size(), local.AsElems().size()) << "dno " << dno;
    for (size_t i = 0; i < remote.rows.size(); ++i) {
      EXPECT_EQ(remote.rows[i], local.AsElems()[i]);
    }
  }

  // Unknown handle: a STATE error, and the connection stays usable.
  EXPECT_THROW(
      {
        try {
          client.ExecutePrepared(handle + 100);
        } catch (const net::RemoteError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kState);
          throw;
        }
      },
      net::RemoteError);
  net::ClientResult still_works = client.ExecutePrepared(handle);
  EXPECT_FALSE(still_works.rows.empty());

  // PREPARE of garbage OQL surfaces a PARSE error eagerly.
  EXPECT_THROW(
      {
        try {
          client.Prepare("select from from where");
        } catch (const net::RemoteError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kParse);
          throw;
        }
      },
      net::RemoteError);
}

TEST_F(NetServerTest, ConcurrentClientsAgreeWithInProcessResults) {
  Harness h;
  const std::vector<std::string> mix = {
      "select distinct d.name from d in Departments "
      "where count(select e from e in Employees where e.dno = d.dno) = 0",
      "select distinct e.name from e in Employees "
      "where e.salary < max(select m.salary from m in Managers "
      "where e.age > m.age)",
      "count(select e from e in Employees)",
  };
  std::vector<Value> expected;
  {
    auto session = h.svc.OpenSession();
    for (const std::string& oql : mix) {
      expected.push_back(h.svc.Execute(*session, oql));
    }
  }

  constexpr int kClients = 4;
  constexpr int kIters = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::Client client;
        client.Connect("127.0.0.1", h.port());
        for (int i = 0; i < kIters; ++i) {
          const size_t m = static_cast<size_t>(c + i) % mix.size();
          net::ClientResult r = client.Execute(mix[m]);
          const Value& want = expected[m];
          if (want.is_collection()) {
            if (r.rows.size() != want.AsElems().size() ||
                !std::equal(r.rows.begin(), r.rows.end(),
                            want.AsElems().begin())) {
              ++failures;
            }
          } else if (r.rows.size() != 1 || r.rows[0] != want) {
            ++failures;
          }
        }
        client.Close();
      } catch (const Error&) {
        ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(NetServerTest, FetchPagesBoundedBatches) {
  Harness h;
  net::Client client;
  client.Connect("127.0.0.1", h.port());

  // fetch_hint = 0: EXEC_OK only, rows pulled by explicit FETCH.
  ExecuteRequest req;
  req.mode = ExecuteRequest::kAdhoc;
  req.oql = "select e.name from e in Employees";
  req.fetch_hint = 0;
  client.SendRaw(req.Encode());
  Frame f = client.ReadFrame();
  ASSERT_EQ(f.opcode, Opcode::kExecOk);
  ExecReply exec = ExecReply::Parse(f.payload);
  EXPECT_EQ(exec.rows, 200u);

  size_t got = 0;
  int batches = 0;
  bool more = true;
  while (more) {
    FetchRequest fetch;
    fetch.max_rows = 17;
    client.SendRaw(fetch.Encode());
    Frame rf = client.ReadFrame();
    ASSERT_EQ(rf.opcode, Opcode::kRows);
    RowsReply rows = RowsReply::Parse(rf.payload);
    EXPECT_LE(rows.rows.size(), 17u);
    got += rows.rows.size();
    ++batches;
    more = rows.has_more != 0;
  }
  EXPECT_EQ(got, exec.rows);
  EXPECT_GT(batches, 1);

  // FETCH past exhaustion: STATE error, connection stays usable.
  FetchRequest fetch;
  fetch.max_rows = 1;
  client.SendRaw(fetch.Encode());
  Frame ef = client.ReadFrame();
  ASSERT_EQ(ef.opcode, Opcode::kError);
  EXPECT_EQ(ErrorReply::Parse(ef.payload).code, ErrorCode::kState);
  EXPECT_EQ(client.Execute("count(select e from e in Employees)").rows.size(),
            1u);
}

TEST_F(NetServerTest, CancelAbortsTheInFlightQuery) {
  Harness h(/*scale=*/2000);
  net::Client client;
  client.Connect("127.0.0.1", h.port());

  // Issue the slow query and cancel from another thread mid-execution.
  std::thread canceller([&client] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    client.Cancel();
  });
  auto t0 = std::chrono::steady_clock::now();
  bool cancelled = false;
  try {
    client.Execute(kSlowQuery);
  } catch (const net::RemoteError& e) {
    cancelled = e.code() == ErrorCode::kCancelled;
  }
  canceller.join();
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  EXPECT_TRUE(cancelled);
  // The abort is cooperative but prompt — far faster than the full query.
  EXPECT_LT(ms, 5000);

  // The session survives a cancel: the next query runs normally.
  net::ClientResult r = client.Execute("count(select e from e in Employees)");
  EXPECT_EQ(r.rows[0], Value::Int(2000));
}

TEST_F(NetServerTest, RemoteAddressFlowsIntoActiveQueriesAndQueryLog) {
  Harness h(/*scale=*/2000);
  net::Client client;
  client.Connect("127.0.0.1", h.port());

  std::thread worker([&client] {
    try {
      client.Execute(kSlowQuery);
    } catch (const net::RemoteError&) {
    }
  });
  // Poll ActiveQueries() until the remote query shows up.
  bool seen_remote = false;
  for (int i = 0; i < 200 && !seen_remote; ++i) {
    for (const obs::ActiveQueryInfo& q : h.svc.ActiveQueries()) {
      if (q.remote.rfind("127.0.0.1:", 0) == 0) seen_remote = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  client.Cancel();
  worker.join();
  EXPECT_TRUE(seen_remote);

  // The finished query carries the same address in the query log.
  std::vector<obs::QueryLogRecord> tail = h.svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].remote.rfind("127.0.0.1:", 0), 0u);
  EXPECT_NE(tail[0].ToString().find("remote=127.0.0.1:"), std::string::npos);
}

TEST_F(NetServerTest, DeadlineExpiryReturnsCancelled) {
  Harness h(/*scale=*/1000);
  net::Client client;
  client.Connect("127.0.0.1", h.port());
  bool cancelled = false;
  try {
    client.Execute(kSlowQuery, /*deadline_ms=*/1);
  } catch (const net::RemoteError& e) {
    cancelled = e.code() == ErrorCode::kCancelled;
  }
  EXPECT_TRUE(cancelled);
  // The per-request deadline must not stick to the session.
  net::ClientResult r = client.Execute("count(select e from e in Employees)");
  EXPECT_EQ(r.rows[0], Value::Int(1000));
}

TEST_F(NetServerTest, AdmissionOverflowRejectsAsErrorFrameNotDisconnect) {
  ServiceOptions sopts;
  sopts.max_concurrent = 1;
  sopts.max_queue = 0;  // anything beyond the one running query is rejected
  Harness h(/*scale=*/1000, sopts);

  obs::Counter* rejected = h.svc.metrics().GetCounter(
      "ldb_queries_rejected_total",
      "Queries refused at admission (queue full)");
  const uint64_t rejected_before = rejected->Value();

  net::Client slow;
  slow.Connect("127.0.0.1", h.port());
  ExecuteRequest req;
  req.mode = ExecuteRequest::kAdhoc;
  req.oql = kSlowQuery;
  req.fetch_hint = 0;
  slow.SendRaw(req.Encode());  // occupies the single admission slot

  // Wait until the slow query is actually running.
  for (int i = 0; i < 400 && h.svc.running() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(h.svc.running(), 0);

  net::Client fast;
  fast.Connect("127.0.0.1", h.port());
  bool saw_admission_error = false;
  try {
    fast.Execute("count(select e from e in Employees)");
  } catch (const net::RemoteError& e) {
    saw_admission_error = e.code() == ErrorCode::kAdmission;
  }
  EXPECT_TRUE(saw_admission_error);
  if (obs::MetricsRegistry::Enabled()) {
    EXPECT_GT(rejected->Value(), rejected_before);
  }

  slow.Cancel();
  Frame f = slow.ReadFrame();  // CANCEL_OK or the EXECUTE's ERROR
  while (f.opcode == Opcode::kCancelOk) f = slow.ReadFrame();
  EXPECT_EQ(f.opcode, Opcode::kError);

  // The rejected client was never disconnected: it can retry and succeed.
  net::ClientResult r = fast.Execute("count(select e from e in Employees)");
  EXPECT_EQ(r.rows[0], Value::Int(1000));
}

TEST_F(NetServerTest, UnknownOpcodeGetsProtocolErrorAndConnSurvives) {
  Harness h;
  net::Client client;
  client.Connect("127.0.0.1", h.port());
  client.SendRaw(net::EncodeFrame(static_cast<Opcode>(0x55), "junk"));
  Frame f = client.ReadFrame();
  ASSERT_EQ(f.opcode, Opcode::kError);
  EXPECT_EQ(ErrorReply::Parse(f.payload).code, ErrorCode::kProtocol);
  net::ClientResult r = client.Execute("count(select e from e in Employees)");
  EXPECT_EQ(r.rows[0], Value::Int(200));
}

// One request must not crash the server: a query nested past the parser's
// depth bound is a PARSE error, and the same connection serves on.
TEST_F(NetServerTest, OverDeepQueriesGetParseErrorsOnALiveConnection) {
  Harness h;
  net::Client client;
  client.Connect("127.0.0.1", h.port());
  std::string chain = "1";
  for (int i = 1; i < 20000; ++i) chain += "+1";
  const std::string inputs[] = {
      "select e from e in Employees where " + std::string(10000, '(') +
          "e.age > 1" + std::string(10000, ')'),
      chain,
  };
  for (const std::string& oql : inputs) {
    EXPECT_THROW(
        {
          try {
            client.Execute(oql);
          } catch (const net::RemoteError& e) {
            EXPECT_EQ(e.code(), ErrorCode::kParse);
            throw;
          }
        },
        net::RemoteError);
    EXPECT_EQ(client.Execute("count(select e from e in Employees)").rows[0],
              Value::Int(200));
  }
}

// Integer arithmetic that leaves int64 is an EVAL error, and a literal that
// does not fit is a PARSE error; neither ends the server or the connection.
TEST_F(NetServerTest, IntegerOverflowGetsErrorFramesOnALiveConnection) {
  Harness h;
  net::Client client;
  client.Connect("127.0.0.1", h.port());
  const std::pair<std::string, ErrorCode> cases[] = {
      {"(0 - 9223372036854775807 - 1) / (0 - 1)", ErrorCode::kEval},
      {"(0 - 9223372036854775807 - 1) mod (0 - 1)", ErrorCode::kEval},
      {"9223372036854775807 * 2", ErrorCode::kEval},
      {"9223372036854775807 + 1", ErrorCode::kEval},
      {"sum(select 9223372036854775807 from e in Employees)", ErrorCode::kEval},
      {"99999999999999999999", ErrorCode::kParse},
      {"1e999", ErrorCode::kParse},
  };
  for (const auto& [oql, code] : cases) {
    EXPECT_THROW(
        {
          try {
            client.Execute(oql);
          } catch (const net::RemoteError& e) {
            EXPECT_EQ(e.code(), code) << oql;
            throw;
          }
        },
        net::RemoteError)
        << oql;
    EXPECT_EQ(client.Execute("count(select e from e in Employees)").rows[0],
              Value::Int(200));
  }
}

// BIND values that declare more than they carry, or nest too deeply, are
// PARSE errors, and the same connection serves on.
TEST_F(NetServerTest, HostileBindTextsGetParseErrorsOnALiveConnection) {
  Harness h;
  net::Client client;
  client.Connect("127.0.0.1", h.port());
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += "l1(";
  const std::string texts[] = {"s100000000:ab", "l2000000000(I1;)", "s-5:ab",
                               deep};
  for (const std::string& text : texts) {
    BindRequest req;
    req.params.emplace_back("1", text);
    client.SendRaw(req.Encode());
    Frame f = client.ReadFrame();
    ASSERT_EQ(f.opcode, Opcode::kError) << text.substr(0, 24);
    EXPECT_EQ(ErrorReply::Parse(f.payload).code, ErrorCode::kParse)
        << text.substr(0, 24);
    EXPECT_EQ(client.Execute("count(select e from e in Employees)").rows[0],
              Value::Int(200));
  }
}

TEST_F(NetServerTest, GarbageLengthPrefixPoisonsOnlyThatConnection) {
  Harness h;
  net::Client bad;
  bad.Connect("127.0.0.1", h.port());
  bad.SendRaw(std::string("\xff\xff\xff\x7f", 4));
  Frame f = bad.ReadFrame();
  ASSERT_EQ(f.opcode, Opcode::kError);
  EXPECT_EQ(ErrorReply::Parse(f.payload).code, ErrorCode::kProtocol);
  EXPECT_THROW(bad.ReadFrame(), Error);  // server closed the connection

  // A well-behaved neighbor is unaffected.
  net::Client good;
  good.Connect("127.0.0.1", h.port());
  EXPECT_EQ(good.Execute("count(select e from e in Employees)").rows[0],
            Value::Int(200));
}

// A bare TCP connection with no client-side handshake, for sending frames
// the reference client never would.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  bool Send(const std::string& frame) {
    return ::send(fd_, frame.data(), frame.size(), 0) ==
           static_cast<ssize_t>(frame.size());
  }
  // The next whole frame; false if the server closed or never answered.
  bool Read(Frame* f) {
    char buf[4096];
    while (!dec_.Next(f)) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      dec_.Feed(buf, static_cast<size_t>(n));
    }
    return true;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameDecoder dec_;
};

TEST_F(NetServerTest, HelloMustBeTheFirstFrame) {
  Harness h;
  // Raw socket: skip the handshake and send PREPARE straight away.
  RawConn conn(h.port());
  ASSERT_TRUE(conn.connected());
  PrepareRequest prep;
  prep.oql = "select e from e in Employees";
  ASSERT_TRUE(conn.Send(prep.Encode()));
  Frame f;
  ASSERT_TRUE(conn.Read(&f));
  EXPECT_EQ(f.opcode, Opcode::kError);
  EXPECT_EQ(ErrorReply::Parse(f.payload).code, ErrorCode::kProtocol);
}

TEST_F(NetServerTest, ReservedHelloByteIsIgnored) {
  Harness h;
  RawConn conn(h.port());
  ASSERT_TRUE(conn.connected());
  // HELLO's last byte is reserved (it once chose the engine): a client that
  // sends 0 there still gets the one engine and the in-process results.
  std::string hello = HelloRequest().Encode();
  hello.back() = '\0';
  ASSERT_TRUE(conn.Send(hello));
  Frame f;
  ASSERT_TRUE(conn.Read(&f));
  ASSERT_EQ(f.opcode, Opcode::kHelloOk);

  const std::string oql =
      "select distinct struct(D: d.name, total: sum(select e.salary "
      "from e in Employees where e.dno = d.dno)) from d in Departments";
  ExecuteRequest req;
  req.mode = ExecuteRequest::kAdhoc;
  req.oql = oql;
  req.fetch_hint = 1u << 20;
  ASSERT_TRUE(conn.Send(req.Encode()));
  ASSERT_TRUE(conn.Read(&f));
  ASSERT_EQ(f.opcode, Opcode::kExecOk);
  ASSERT_TRUE(conn.Read(&f));
  ASSERT_EQ(f.opcode, Opcode::kRows);
  RowsReply rows = RowsReply::Parse(f.payload);

  auto session = h.svc.OpenSession();
  const Value local = h.svc.Execute(*session, oql);
  ASSERT_EQ(rows.rows.size(), local.AsElems().size());
  EXPECT_EQ(rows.has_more, 0);
  for (size_t i = 0; i < rows.rows.size(); ++i) {
    EXPECT_EQ(ValueFromText(rows.rows[i]), local.AsElems()[i]) << "row " << i;
  }
}

TEST_F(NetServerTest, TornWritesReachTheServerIntact) {
  Harness h;
  net::Client client;
  client.Connect("127.0.0.1", h.port());
  ExecuteRequest req;
  req.mode = ExecuteRequest::kAdhoc;
  req.oql = "count(select e from e in Employees)";
  req.fetch_hint = 1;
  std::string frame = req.Encode();
  for (char byte : frame) {  // one byte per send()
    client.SendRaw(std::string(1, byte));
  }
  Frame f = client.ReadFrame();
  ASSERT_EQ(f.opcode, Opcode::kExecOk);
  Frame rows = client.ReadFrame();
  ASSERT_EQ(rows.opcode, Opcode::kRows);
  RowsReply rr = RowsReply::Parse(rows.payload);
  ASSERT_EQ(rr.rows.size(), 1u);
  EXPECT_EQ(ValueFromText(rr.rows[0]), Value::Int(200));
}

TEST_F(NetServerTest, GracefulShutdownDrainsInFlightQueriesUnderDeadline) {
  net::ServerOptions nopts;
  nopts.drain_timeout_ms = 300;
  auto h = std::make_unique<Harness>(/*scale=*/2000, ServiceOptions{}, nopts);

  net::Client client;
  client.Connect("127.0.0.1", h->port());
  std::atomic<bool> got_reply{false};
  std::atomic<bool> got_cancelled{false};
  std::thread worker([&] {
    try {
      client.Execute(kSlowQuery);
      got_reply = true;
    } catch (const net::RemoteError& e) {
      got_reply = true;
      got_cancelled = e.code() == ErrorCode::kCancelled;
    } catch (const Error&) {
      // Transport error would mean the drain dropped the reply: a failure.
    }
  });

  // Let the query get onto a worker, then shut down mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto t0 = std::chrono::steady_clock::now();
  h->server.Shutdown();
  double shutdown_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  worker.join();

  // The drain cancelled the query at its deadline but still delivered the
  // ERROR frame before closing — no silent connection drop.
  EXPECT_TRUE(got_reply.load());
  EXPECT_TRUE(got_cancelled.load());
  EXPECT_LT(shutdown_ms, 5000);

  // The listener is gone: new connections are refused.
  net::Client late;
  EXPECT_THROW(late.Connect("127.0.0.1", h->port()), Error);
}

// The first sample named `name` (with label op=`op`, when given), or -1.
double MetricValue(const obs::MetricsSnapshot& snap, const std::string& name,
                   const std::string& op = "") {
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name != name) continue;
    if (!op.empty()) {
      auto it = s.labels.find("op");
      if (it == s.labels.end() || it->second != op) continue;
    }
    return s.value;
  }
  return -1;
}

TEST_F(NetServerTest, NetMetricsAreRegisteredAndCounted) {
  if (!obs::MetricsRegistry::Enabled()) {
    GTEST_SKIP() << "built with -DLDB_METRICS=OFF";
  }
  Harness h;
  net::Client client;
  client.Connect("127.0.0.1", h.port());
  client.Execute("count(select e from e in Employees)");

  obs::MetricsSnapshot snap = h.svc.metrics().Snapshot();
  EXPECT_EQ(MetricValue(snap, "ldb_connections_open"), 1);
  EXPECT_GE(MetricValue(snap, "ldb_connections_total"), 1);
  EXPECT_GT(MetricValue(snap, "ldb_net_bytes_sent_total"), 0);
  EXPECT_GT(MetricValue(snap, "ldb_net_bytes_recv_total"), 0);
  EXPECT_GE(MetricValue(snap, "ldb_net_frames_total", "HELLO"), 1);
  EXPECT_GE(MetricValue(snap, "ldb_net_frames_total", "EXECUTE"), 1);
  EXPECT_EQ(MetricValue(snap, "ldb_net_frames_total", "CANCEL"), 0);
  client.Close();
}

// A metrics-off build mints no trace ids: EXEC_OK reports 0 whether or not
// the client sent a trace context, so a trace id never names a trace that
// no ring could hold.
TEST_F(NetServerTest, ExecOkTraceIdIsZeroOnlyWithMetricsCompiledOut) {
  Harness h;
  net::Client client;
  client.Connect("127.0.0.1", h.port());
  for (bool traced : {true, false}) {
    client.set_trace_requests(traced);
    for (int i = 0; i < 3; ++i) {
      net::ClientResult r =
          client.Execute("count(select e from e in Employees)");
      if (obs::MetricsRegistry::Enabled()) {
        EXPECT_NE(r.exec.trace_id, 0u) << "traced=" << traced;
      } else {
        EXPECT_EQ(r.exec.trace_id, 0u) << "traced=" << traced;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Chaos: every failure path at once, under concurrency
// ---------------------------------------------------------------------------

// Seeded clients send the SERVICE mix plus kSlowQuery through one admission
// slot and one queue place. Each request gets one action: none, a CANCEL
// 0-2 ms after it is sent, a 1-5 ms deadline (always on kSlowQuery), or a
// disconnect: the request goes out on a fresh socket that is closed right
// after EXECUTE, and the client then reconnects. Client 0's HELLO sets a
// 4 KiB memory budget. Every reply must be exactly the in-process result
// or ERROR(CANCELLED | ADMISSION | OVER_BUDGET), no socket the test did not
// close may fail, and afterwards the server holds no query, no tracked
// byte, and still serves.
TEST_F(NetServerTest, ChaosClientsLeaveNoResidue) {
  constexpr int kScale = 500;
  constexpr int kClients = 8;
  constexpr int kRequests = 60;
  constexpr int kBindings = 4;
  // A request rejected at admission is retried, so that the outcomes the
  // test asserts on do not hang on which client wins the slot.
  constexpr int kMaxAttempts = 1000;
  ServiceOptions sopts;
  sopts.max_concurrent = 1;
  sopts.max_queue = 1;
  Harness h(kScale, sopts);

  const std::string kLookup =
      "select distinct e.name from e in Employees where e.dno = ";
  const std::vector<std::string> mix = {
      "select distinct struct(D: d.name, total: sum(select e.salary "
      "from e in Employees where e.dno = d.dno)) from d in Departments",
      // 489 rows at this scale: always over the 4 KiB budget.
      "select distinct e.name from e in Employees "
      "where e.salary < max(select m.salary from m in Managers "
      "where e.age > m.age)",
      "select distinct d.name from d in Departments "
      "where count(select e from e in Employees where e.dno = d.dno) = 0",
      kLookup + "$1",
      kSlowQuery,
  };
  constexpr size_t kTypeJA = 1;
  constexpr size_t kParam = 3;
  constexpr size_t kSlow = 4;
  // expected[statement][binding]; only the lookup has more than one.
  std::vector<std::vector<Value>> expected(mix.size());
  {
    auto session = h.svc.OpenSession();
    for (size_t s = 0; s < mix.size(); ++s) {
      for (int b = 0; b < (s == kParam ? kBindings : 1); ++b) {
        session->Bind("1", Value::Int(b));
        expected[s].push_back(h.svc.Execute(*session, mix[s]));
      }
    }
  }
  auto matches = [](const net::ClientResult& r, const Value& want) {
    if (!want.is_collection()) return r.rows.size() == 1 && r.rows[0] == want;
    return r.rows.size() == want.AsElems().size() &&
           std::equal(r.rows.begin(), r.rows.end(), want.AsElems().begin());
  };

  enum Action { kNone, kCancel, kDeadline, kDisconnect };
  std::atomic<int> ok{0}, cancelled{0}, rejected{0}, over_budget{0};
  std::atomic<int> disconnects{0}, wrong{0}, other_errors{0}, transport{0};

  auto run_client = [&](int c) {
    std::mt19937 rng(static_cast<uint32_t>(1000 + c));
    HelloRequest hello;
    if (c == 0) hello.memory_budget_bytes = 4096;
    std::unique_ptr<net::Client> client;
    std::vector<uint64_t> handles;
    auto connect = [&] {
      client = std::make_unique<net::Client>();
      client->Connect("127.0.0.1", h.port(), hello);
      handles.clear();
      for (const std::string& oql : mix) {
        handles.push_back(client->Prepare(oql));
      }
    };
    // One attempt; returns true when it was rejected at admission.
    auto attempt = [&](size_t s, int b, Action a) {
      std::thread canceller;
      if (a == kCancel) {
        const auto delay = std::chrono::microseconds(rng() % 2001);
        canceller = std::thread([&client, &transport, delay] {
          std::this_thread::sleep_for(delay);
          try {
            client->Cancel();
          } catch (const Error&) {
            ++transport;
          }
        });
      }
      const uint64_t deadline_ms = a == kDeadline ? 1 + rng() % 5 : 0;
      bool was_rejected = false;
      try {
        net::ClientResult r = client->ExecutePrepared(handles[s], deadline_ms);
        ++(matches(r, expected[s][static_cast<size_t>(b)]) ? ok : wrong);
      } catch (const net::RemoteError& e) {
        switch (e.code()) {
          case ErrorCode::kCancelled: ++cancelled; break;
          case ErrorCode::kOverBudget: ++over_budget; break;
          case ErrorCode::kAdmission:
            ++rejected;
            was_rejected = true;
            break;
          default:
            ADD_FAILURE() << e.what();
            ++other_errors;
        }
      } catch (const Error& e) {
        ADD_FAILURE() << "transport: " << e.what();
        ++transport;
      }
      if (canceller.joinable()) canceller.join();
      return was_rejected;
    };

    try {
      connect();
      for (int i = 0; i < kRequests; ++i) {
        // The budget client opens with the type-JA statement and no action,
        // so OVER_BUDGET does not hang on the dice either.
        const bool opener = c == 0 && i == 0;
        const size_t s = opener ? kTypeJA : rng() % mix.size();
        const int b = s == kParam ? static_cast<int>(rng() % kBindings) : 0;
        const Action a = opener        ? kNone
                         : s == kSlow ? kDeadline
                                      : static_cast<Action>(rng() % 4);
        if (a == kDisconnect) {
          ExecuteRequest req;
          req.mode = ExecuteRequest::kAdhoc;
          req.oql = s == kParam ? kLookup + std::to_string(b) : mix[s];
          req.fetch_hint = 1024;
          {
            RawConn raw(h.port());
            Frame f;
            if (!raw.connected() || !raw.Send(hello.Encode()) ||
                !raw.Read(&f) || f.opcode != Opcode::kHelloOk ||
                !raw.Send(req.Encode())) {
              ADD_FAILURE() << "raw connection failed before EXECUTE";
              ++transport;
            }
          }  // closed without reading the reply
          ++disconnects;
          connect();
          continue;
        }
        if (s == kParam) client->Bind({{"1", Value::Int(b)}});
        for (int n = 1; attempt(s, b, a) && n < kMaxAttempts; ++n) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      client->Close();
    } catch (const Error& e) {
      ADD_FAILURE() << "client " << c << ": " << e.what();
      ++transport;
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) threads.emplace_back(run_client, c);
  for (std::thread& t : threads) t.join();
  std::printf("chaos: %d ok, %d cancelled, %d rejected, %d over budget, "
              "%d disconnects\n",
              ok.load(), cancelled.load(), rejected.load(), over_budget.load(),
              disconnects.load());

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(other_errors.load(), 0);
  EXPECT_EQ(transport.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(cancelled.load(), 0);
  EXPECT_GT(over_budget.load(), 0);

  // No residue: the disconnected sessions' queries unwind, and every
  // memory tracker returns what it charged.
  auto mem_in_use = [&h] {
    return MetricValue(h.svc.metrics().Snapshot(), "ldb_mem_in_use_bytes");
  };
  auto residue = [&] {
    return !h.svc.ActiveQueries().empty() ||
           (obs::MetricsRegistry::Enabled() && mem_in_use() != 0);
  };
  for (int i = 0; i < 1000 && residue(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(h.svc.ActiveQueries().empty());
  if (obs::MetricsRegistry::Enabled()) {
    EXPECT_EQ(mem_in_use(), 0);
  }

  // And the server still serves.
  net::Client fresh;
  fresh.Connect("127.0.0.1", h.port());
  net::ClientResult r = fresh.Execute("count(select e from e in Employees)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0], Value::Int(kScale));
}

}  // namespace
}  // namespace ldb
