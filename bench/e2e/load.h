// Drives a running ldb_server over wire v2 with client tracing off: one
// thread per connection (at most 4), open-loop Poisson arrivals timed from
// their scheduled send, closed-loop capacity phases, and the observer-cost
// A/B phase. Every reply's row count is checked against the oracle and 1 in
// 16 is fully hashed.
//
// In traced mode each call goes through the same wire exchange as
// net::Client::Execute*, spelled out with the client's public frame API so
// the benchmark can record its own spans around each step (send, await
// EXEC_OK, rows, decode) and rebuild the server's phases from EXEC_OK.

#ifndef LAMBDADB_BENCH_E2E_LOAD_H_
#define LAMBDADB_BENCH_E2E_LOAD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench/e2e/bench_util.h"
#include "bench/e2e/spans.h"
#include "bench/e2e/workloads.h"
#include "src/net/client.h"

namespace ldb::e2e {

struct Outcome {
  enum Kind : uint8_t {
    kOk,
    kRejected,
    kCancelled,
    kError,
    kTransport,
    kWrong,  ///< a reply whose rows differ from the reference
  };
  uint32_t call = 0;
  Kind kind = kOk;
  bool hashed = false;       ///< the reply was fully hashed, not just counted
  double latency_ms = 0;     ///< from the scheduled arrival (open loop) or
                             ///< from the send (closed loop)
  double lag_us = 0;         ///< generator oversleep before the send (closed
                             ///< loop: the gap after the previous reply)
  int64_t send_ns = 0;       ///< since the run's epoch
  int64_t done_ns = 0;
  net::ExecReply exec;       ///< server-reported phases
  // Traced mode only:
  double execute_ms = 0;     ///< EXECUTE..last ROWS round trip (no BIND)
  double decode_us = 0;      ///< ValueFromText over the reply's rows
  uint32_t row_frames = 0;   ///< ROWS frames (1 + FETCH round trips)
  uint64_t row_bytes = 0;    ///< ROWS payload bytes
};

/// Latencies of one call sent three ways, interleaved (ms).
struct ObserverCost {
  std::vector<double> plain_ms;         ///< client tracing off (as measured)
  std::vector<double> client_trace_ms;  ///< client mints a trace context
  std::vector<double> spans_ms;         ///< benchmark spans recorded
  std::vector<Outcome> outcomes;        ///< every call, for the checks
};

class LoadGenerator {
 public:
  /// Connects `w.connections` clients and PREPAREs the statements on each.
  /// Request ids start at `first_request`, so that a run driving several
  /// servers numbers its requests, and hashes 1 reply in 16, across all.
  LoadGenerator(const Workload& w, uint16_t port, bool traced,
                Clock::time_point epoch, uint64_t first_request);

  /// Each connection sends the workload's representative calls once, so
  /// plans are compiled and pages touched before timing.
  std::vector<Outcome> Warmup();
  /// Sends `schedule` over all connections; `*unsent` counts arrivals no
  /// live connection could send.
  std::vector<Outcome> OpenLoop(const std::vector<Arrival>& schedule,
                                uint64_t* unsent);
  /// Every connection sends back to back for `seconds`.
  std::vector<Outcome> ClosedLoop(double seconds, uint64_t seed,
                                  double* elapsed_s);
  /// Interleaves plain / client-traced / span-recorded sends of the same
  /// calls on connection 0 for `seconds` (`only_call` >= 0 pins the call).
  ObserverCost MeasureObserverCost(double seconds, uint64_t seed,
                                   int only_call);

  std::vector<const SpanLog*> span_logs() const;

 private:
  struct Conn {
    net::Client client;
    std::vector<uint64_t> handles;
    std::unique_ptr<SpanLog> spans;  ///< traced mode only
    bool dead = false;               ///< a transport error ended it
  };

  /// Sends one call and checks the reply into *out.
  void Run(Conn& c, uint32_t call, SpanLog* spans, Outcome* out);
  net::ClientResult ExecuteTraced(Conn& c, const Call& call, SpanLog* spans,
                                  uint64_t request, Outcome* out);

  template <typename Body>
  void OnEachConnection(Body body);

  const Workload& w_;
  Clock::time_point epoch_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_request_;
};

}  // namespace ldb::e2e

#endif  // LAMBDADB_BENCH_E2E_LOAD_H_
