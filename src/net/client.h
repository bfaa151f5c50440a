// Blocking client for the ldb wire protocol (src/net/wire.h, docs/WIRE.md).
// Used by oqlsh's .connect mode, ldb_bench (bench/e2e), and the tests.
//
// One thread drives the request/response conversation; Cancel() is the only
// member safe to call concurrently — it writes a CANCEL frame on the same
// socket (sends are mutex-serialized), and the response reader transparently
// skips the out-of-band CANCEL_OK acknowledgements, so a cancel can race an
// EXECUTE without corrupting the conversation.

#ifndef LAMBDADB_NET_CLIENT_H_
#define LAMBDADB_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/thread_annotations.h"
#include "src/net/wire.h"
#include "src/obs/trace.h"
#include "src/runtime/error.h"
#include "src/runtime/value.h"

namespace ldb {
namespace net {

/// An ERROR frame surfaced client-side, carrying the server's wire error
/// code (the projection of the structured error taxonomy).
class RemoteError : public Error {
 public:
  RemoteError(ErrorCode code, const std::string& message)
      : Error(std::string("server error [") + ErrorCodeName(code) +
              "]: " + message),
        code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// One executed query: the server's EXEC_OK stats plus the decoded result.
struct ClientResult {
  ExecReply exec;
  /// Decoded rows (collection elements, or the single scalar value).
  std::vector<Value> rows;
  bool scalar() const { return exec.scalar != 0; }
};

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects (IPv4 literal or "localhost") and runs the HELLO handshake.
  /// `recv_timeout_ms` bounds every blocking read so a wedged server fails
  /// the call instead of hanging the caller.
  void Connect(const std::string& host, uint16_t port,
               const HelloRequest& hello = {}, int recv_timeout_ms = 30000);
  /// Best-effort GOODBYE handshake, then closes the socket. Idempotent.
  void Close();
  bool connected() const { return fd_ >= 0; }

  const HelloReply& hello() const { return hello_; }
  uint64_t session_id() const { return hello_.session_id; }

  /// PREPARE: OQL -> connection-local handle.
  uint64_t Prepare(const std::string& oql);
  /// BIND: parameter values ($1 binds name "1").
  void Bind(const std::vector<std::pair<std::string, Value>>& params,
            bool clear_first = true);

  /// Ad-hoc EXECUTE; FETCHes the whole result in bounded batches.
  /// `fetch_batch` = rows per batch (0 = server default).
  ClientResult Execute(const std::string& oql, uint64_t deadline_ms = 0,
                       uint32_t fetch_batch = 0);
  /// EXECUTE of a Prepare()d handle.
  ClientResult ExecutePrepared(uint64_t handle, uint64_t deadline_ms = 0,
                               uint32_t fetch_batch = 0);

  /// Requests cancellation of the in-flight query. Safe from any thread.
  void Cancel();

  /// INTROSPECT (v2): fetches one observability JSON document off the
  /// server — IntrospectRequest::kMetrics / kActiveQueries / kQueryLog /
  /// kTrace (docs/WIRE.md). For kTrace, `trace_id` 0 means "the slowest
  /// kept trace". Throws RemoteError when the server cannot answer (v1
  /// server, unknown kind, trace sampled out).
  std::string Introspect(uint8_t kind, uint32_t arg = 0,
                         uint64_t trace_id = 0);

  /// Whether every EXECUTE mints and sends a trace context (default on).
  /// A traced request's server-side trace is fetchable by id while the
  /// tail-sampling ring keeps it; untraced requests still get server-minted
  /// ids, just not known to the client in advance.
  void set_trace_requests(bool on) { trace_requests_ = on; }
  /// Extra TraceContext flags for minted contexts (e.g. kForceSample).
  void set_trace_flags(uint8_t flags) { trace_flags_ = flags; }
  /// Trace id of the most recent EXECUTE: the server-reported id when the
  /// reply carried one (v2), else the minted id (0 when tracing is off).
  uint64_t last_trace_id() const { return last_trace_id_; }

  // -- low-level access (protocol tests) --------------------------------------

  /// Sends raw bytes verbatim (not necessarily a well-formed frame).
  void SendRaw(const std::string& bytes) LDB_EXCLUDES(send_mu_);
  /// Sends one well-formed frame.
  void SendFrame(Opcode op, const std::string& payload);
  /// Blocks for the next frame, whatever it is (CANCEL_OK included).
  Frame ReadFrame();

 private:
  /// Reads frames until one with `expected` arrives. Skips CANCEL_OK,
  /// throws RemoteError on ERROR, WireError on anything else.
  Frame Await(Opcode expected);
  ClientResult RunExecute(const ExecuteRequest& req);

  /// Atomic because Cancel() (any thread) sends on the socket while the
  /// driving thread may be inside Connect()/Close() assigning it; the fd
  /// value itself is the entire shared state, so an atomic load/store is
  /// the right-sized fix (a torn read of a plain int would be UB).
  std::atomic<int> fd_{-1};
  FrameDecoder decoder_;  ///< driving thread only
  HelloReply hello_;      ///< written by Connect, read-only afterwards
  Mutex send_mu_;  ///< serializes socket writes (Cancel vs requests)
  bool trace_requests_ = true;   ///< driving thread only
  uint8_t trace_flags_ = 0;      ///< driving thread only
  uint64_t last_trace_id_ = 0;   ///< driving thread only
};

}  // namespace net
}  // namespace ldb

#endif  // LAMBDADB_NET_CLIENT_H_
