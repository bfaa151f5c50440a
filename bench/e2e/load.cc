#include "bench/e2e/load.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <thread>

#include "src/runtime/serialize.h"

namespace ldb::e2e {

namespace {

// Rows per ROWS batch, as net::Client asks for them.
constexpr uint32_t kFetchRows = 1024;

Outcome::Kind KindOf(net::ErrorCode code) {
  switch (code) {
    case net::ErrorCode::kAdmission:
      return Outcome::kRejected;
    case net::ErrorCode::kCancelled:
      return Outcome::kCancelled;
    default:
      return Outcome::kError;
  }
}

// Reads frames until `want` arrives, as net::Client does: out-of-band
// CANCEL_OKs are skipped and ERROR frames become RemoteError.
net::Frame Await(net::Client& c, net::Opcode want) {
  for (;;) {
    net::Frame f = c.ReadFrame();
    if (f.opcode == want) return f;
    if (f.opcode == net::Opcode::kCancelOk) continue;
    if (f.opcode == net::Opcode::kError) {
      net::ErrorReply err = net::ErrorReply::Parse(f.payload);
      throw net::RemoteError(err.code, err.message);
    }
    throw net::WireError(std::string("expected ") + net::OpcodeName(want) +
                         ", got " + net::OpcodeName(f.opcode));
  }
}

// Lays the server's reported phases out back to back inside the await span
// (ending where EXEC_OK arrived); what they leave uncovered is network and
// client time.
void AddServerSpans(SpanLog* spans, int await, uint64_t request,
                    const net::ExecReply& exec) {
  const Span a = spans->spans()[static_cast<size_t>(await)];
  struct Phase {
    const char* name;
    const char* layer;
    double ms;
  };
  const Phase phases[] = {
      {"server:queue-wait", "net", exec.queue_wait_ms},
      {"server:admission", "service", exec.queue_ms},
      {exec.plan_cached ? "server:front-end" : "server:compile", "service",
       exec.compile_ms},
      {"server:execute", "runtime", exec.exec_ms},
      {"server:serialize", "net", exec.serialize_ms},
  };
  double total_ms = 0;
  for (const Phase& p : phases) total_ms += p.ms;
  int64_t t =
      std::max(a.start_ns, a.end_ns - static_cast<int64_t>(total_ms * 1e6));
  for (const Phase& p : phases) {
    int64_t end = std::min(a.end_ns, t + static_cast<int64_t>(p.ms * 1e6));
    spans->Add(p.name, p.layer, request, t, end, await);
    t = end;
  }
}

std::vector<Outcome> Flatten(std::vector<std::vector<Outcome>> per) {
  std::vector<Outcome> out;
  for (std::vector<Outcome>& v : per) out.insert(out.end(), v.begin(), v.end());
  return out;
}

}  // namespace

LoadGenerator::LoadGenerator(const Workload& w, uint16_t port, bool traced,
                             Clock::time_point epoch, uint64_t first_request)
    : w_(w), epoch_(epoch), next_request_(first_request) {
  for (int i = 0; i < w.connections; ++i) {
    auto c = std::make_unique<Conn>();
    net::HelloRequest hello;
    hello.n_threads = w.session_threads;
    c->client.Connect("127.0.0.1", port, hello);
    c->client.set_trace_requests(false);
    for (const std::string& s : w.prepared)
      c->handles.push_back(c->client.Prepare(s));
    if (traced) c->spans = std::make_unique<SpanLog>(i + 1, epoch);
    conns_.push_back(std::move(c));
  }
}

std::vector<const SpanLog*> LoadGenerator::span_logs() const {
  std::vector<const SpanLog*> out;
  for (const auto& c : conns_) {
    if (c->spans != nullptr) out.push_back(c->spans.get());
  }
  return out;
}

template <typename Body>
void LoadGenerator::OnEachConnection(Body body) {
  std::vector<std::thread> threads;
  threads.reserve(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) {
    threads.emplace_back([this, &body, i] {
      // The default 50 us timer slack lets each open-loop send wake up to
      // that late, which measured as 15% of lookup's median latency.
      ::prctl(PR_SET_TIMERSLACK, 1UL);
      try {
        body(i, *conns_[i]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ldb_bench: connection %zu: %s\n", i, e.what());
        conns_[i]->dead = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

void LoadGenerator::Run(Conn& c, uint32_t call_index, SpanLog* spans,
                        Outcome* out) {
  const Call& call = w_.calls[call_index];
  const uint64_t request = next_request_.fetch_add(1);
  out->call = call_index;
  out->hashed = request % 16 == 0;
  out->send_ns = NanosBetween(epoch_, Clock::now());
  net::ClientResult r;
  try {
    if (spans != nullptr) {
      r = ExecuteTraced(c, call, spans, request, out);
    } else {
      if (call.has_param) c.client.Bind({{"1", Value::Int(call.param)}});
      r = call.stmt >= 0 ? c.client.ExecutePrepared(
                               c.handles[static_cast<size_t>(call.stmt)])
                         : c.client.Execute(call.oql);
    }
    out->kind = Outcome::kOk;
  } catch (const net::RemoteError& e) {
    out->kind = KindOf(e.code());
  } catch (const Error&) {
    out->kind = Outcome::kTransport;
    c.dead = true;
  }
  out->done_ns = NanosBetween(epoch_, Clock::now());
  out->latency_ms = static_cast<double>(out->done_ns - out->send_ns) / 1e6;
  if (out->kind != Outcome::kOk) return;
  out->exec = r.exec;
  if (r.rows.size() != call.rows || r.exec.rows != call.rows ||
      (out->hashed && ResultDigest(r.rows) != call.digest)) {
    out->kind = Outcome::kWrong;
  }
}

net::ClientResult LoadGenerator::ExecuteTraced(Conn& c, const Call& call,
                                               SpanLog* spans,
                                               uint64_t request,
                                               Outcome* out) {
  ScopedSpan root(spans, "request", "bench", request);
  if (call.has_param) {
    ScopedSpan s(spans, "bind", "net", request);
    c.client.Bind({{"1", Value::Int(call.param)}});
  }
  net::ExecuteRequest req;
  if (call.stmt >= 0) {
    req.mode = net::ExecuteRequest::kPrepared;
    req.handle = c.handles[static_cast<size_t>(call.stmt)];
  } else {
    req.mode = net::ExecuteRequest::kAdhoc;
    req.oql = call.oql;
  }
  req.fetch_hint = kFetchRows;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan s(spans, "send", "net", request);
    c.client.SendRaw(req.Encode());
  }
  net::ClientResult result;
  const int await = spans->Begin("await-exec-ok", "net", request);
  result.exec =
      net::ExecReply::Parse(Await(c.client, net::Opcode::kExecOk).payload);
  spans->End(await);
  AddServerSpans(spans, await, request, result.exec);

  std::vector<std::string> texts;
  {
    ScopedSpan s(spans, "rows", "net", request);
    // The first batch follows EXEC_OK unasked (fetch_hint > 0).
    for (bool first = true, more = true; more; first = false) {
      if (!first) {
        net::FetchRequest fetch;
        fetch.max_rows = kFetchRows;
        c.client.SendRaw(fetch.Encode());
      }
      net::Frame f = Await(c.client, net::Opcode::kRows);
      out->row_bytes += f.payload.size();
      ++out->row_frames;
      net::RowsReply batch = net::RowsReply::Parse(f.payload);
      for (std::string& t : batch.rows) texts.push_back(std::move(t));
      more = batch.has_more != 0;
    }
  }
  out->execute_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  ScopedSpan s(spans, "decode", "net", request);
  out->decode_us = TimeUs([&] {
    result.rows.reserve(texts.size());
    for (const std::string& t : texts) result.rows.push_back(ValueFromText(t));
  });
  return result;
}

std::vector<Outcome> LoadGenerator::Warmup() {
  std::vector<std::vector<Outcome>> per(conns_.size());
  const std::vector<size_t> calls = RepresentativeCalls(w_);
  OnEachConnection([&](size_t i, Conn& c) {
    for (size_t call : calls) {
      if (c.dead) break;
      Outcome o;
      Run(c, static_cast<uint32_t>(call), c.spans.get(), &o);
      per[i].push_back(o);
    }
  });
  return Flatten(std::move(per));
}

std::vector<Outcome> LoadGenerator::OpenLoop(
    const std::vector<Arrival>& schedule, uint64_t* unsent) {
  std::atomic<size_t> next{0};
  std::vector<std::vector<Outcome>> per(conns_.size());
  const Clock::time_point start = Clock::now();
  OnEachConnection([&](size_t i, Conn& c) {
    Clock::time_point prev_done = start;
    while (!c.dead) {
      const size_t k = next.fetch_add(1);
      if (k >= schedule.size()) break;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule[k].at_s));
      std::this_thread::sleep_until(due);
      Outcome o;
      o.lag_us = std::chrono::duration<double, std::micro>(
                     Clock::now() - std::max(due, prev_done))
                     .count();
      Run(c, schedule[k].call, c.spans.get(), &o);
      prev_done = epoch_ + std::chrono::nanoseconds(o.done_ns);
      o.latency_ms =
          static_cast<double>(o.done_ns - NanosBetween(epoch_, due)) / 1e6;
      per[i].push_back(o);
    }
  });
  *unsent = schedule.size() - std::min(next.load(), schedule.size());
  return Flatten(std::move(per));
}

std::vector<Outcome> LoadGenerator::ClosedLoop(double seconds, uint64_t seed,
                                               double* elapsed_s) {
  std::vector<std::vector<Outcome>> per(conns_.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  OnEachConnection([&](size_t i, Conn& c) {
    CallStream calls(w_, Mix64(seed ^ (0xc105ULL + i)));
    int64_t prev_done_ns = NanosBetween(epoch_, start);
    while (!c.dead && Clock::now() < end) {
      Outcome o;
      Run(c, static_cast<uint32_t>(calls.Next()), c.spans.get(), &o);
      o.lag_us = static_cast<double>(o.send_ns - prev_done_ns) / 1e3;
      prev_done_ns = o.done_ns;
      per[i].push_back(o);
    }
  });
  *elapsed_s = SecondsBetween(start, Clock::now());
  return Flatten(std::move(per));
}

ObserverCost LoadGenerator::MeasureObserverCost(double seconds,
                                                uint64_t seed,
                                                int only_call) {
  ObserverCost out;
  Conn& c = *conns_[0];
  CallStream calls(w_, Mix64(seed ^ 0x0b5e7ULL));
  SpanLog unreported(0, epoch_);  // arm 2 records spans, then drops them
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int round = 0; !c.dead && (round < 5 || Clock::now() < end); ++round) {
    const uint32_t call = only_call >= 0 ? static_cast<uint32_t>(only_call)
                                         : static_cast<uint32_t>(calls.Next());
    // Rotate which arm goes first so no arm always follows another.
    for (int k = 0; k < 3; ++k) {
      const int arm = (round + k) % 3;
      c.client.set_trace_requests(arm == 1);
      Outcome o;
      Run(c, call, arm == 2 ? &unreported : nullptr, &o);
      out.outcomes.push_back(o);
      std::vector<double>& lat = arm == 0   ? out.plain_ms
                                 : arm == 1 ? out.client_trace_ms
                                            : out.spans_ms;
      if (o.kind == Outcome::kOk) lat.push_back(o.latency_ms);
    }
  }
  c.client.set_trace_requests(false);
  return out;
}

}  // namespace ldb::e2e
