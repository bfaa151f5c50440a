// The ldb wire protocol: length-prefixed binary frames between a client and
// an ldb_server (docs/WIRE.md is the normative spec).
//
// Frame layout (all integers little-endian):
//
//   u32 length   -- bytes that follow the length field (opcode + payload)
//   u8  opcode   -- Opcode below
//   ...payload   -- length - 1 bytes, opcode-specific
//
// The decoder enforces kMaxFrameBytes *before* allocating a payload buffer,
// so a garbage or hostile length prefix costs nothing and poisons only the
// connection that sent it. Payload parsers read fixed fields front-to-back
// and IGNORE trailing bytes — that is the versioning rule: a newer peer may
// append fields to any payload without breaking an older one. Unknown
// opcodes are answered with ERROR/kProtocol, not a connection drop.
//
// Parameter values and result rows travel in the database dump's value
// syntax (src/runtime/serialize.h: ValueToText/ValueFromText), which is
// self-delimiting and round-trips every runtime value exactly.
//
// Everything in this header is pure data transformation — no sockets — so
// the framing and every message codec are unit-testable byte-for-byte
// (tests/net_test.cc feeds the decoder one byte at a time).

#ifndef LAMBDADB_NET_WIRE_H_
#define LAMBDADB_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/error.h"
#include "src/runtime/value.h"

namespace ldb {
namespace net {

/// Protocol version spoken by this build. HELLO negotiates
/// min(client, server). v2 added the INTROSPECT opcode and the trailing
/// trace-context / timing extensions on EXECUTE, PREPARE, and EXEC_OK —
/// the extensions themselves are plain trailing bytes (a v1 peer ignores
/// them); the version exists so a client knows whether INTROSPECT is
/// answerable before sending it.
constexpr uint32_t kProtocolVersion = 2;

/// Hard ceiling on `length` (opcode + payload). The decoder rejects a larger
/// prefix before allocating anything; the encoder refuses to build one.
constexpr uint32_t kMaxFrameBytes = 16u << 20;  // 16 MiB

enum class Opcode : uint8_t {
  // client -> server
  kHello = 0x01,    ///< version + session options; must be the first frame
  kPrepare = 0x02,  ///< OQL text -> connection-local statement handle
  kBind = 0x03,     ///< parameter bindings for subsequent executes
  kExecute = 0x04,  ///< run ad-hoc OQL or a prepared handle
  kFetch = 0x05,    ///< next batch of rows from the connection's cursor
  kCancel = 0x06,   ///< abort the in-flight query (handled out-of-band)
  kGoodbye = 0x07,  ///< orderly close
  kIntrospect = 0x08,  ///< v2: remote observability snapshot (metrics /
                       ///< active queries / query-log tail / trace-by-id)

  // server -> client
  kHelloOk = 0x81,
  kPrepareOk = 0x82,
  kBindOk = 0x83,
  kExecOk = 0x84,
  kRows = 0x85,
  kCancelOk = 0x86,
  kGoodbyeOk = 0x87,
  kIntrospectOk = 0x88,
  kError = 0x8F,
};

/// Human-readable opcode name ("HELLO", "EXECUTE", ...); "OP_xx" for
/// unknown bytes. Used for the per-frame-type request counters.
const char* OpcodeName(Opcode op);

/// Error codes carried by ERROR frames — the wire projection of the
/// structured error taxonomy (src/runtime/error.h and friends).
enum class ErrorCode : uint16_t {
  kProtocol = 1,      ///< malformed frame, bad opcode, bad sequencing
  kParse = 2,         ///< ldb::ParseError
  kType = 3,          ///< ldb::TypeError
  kUnsupported = 4,   ///< ldb::UnsupportedError
  kEval = 5,          ///< ldb::EvalError (and unclassified runtime errors)
  kCancelled = 6,     ///< ldb::QueryCancelled (explicit cancel or deadline)
  kAdmission = 7,     ///< ldb::AdmissionError (admission queue full)
  kOverBudget = 8,    ///< ldb::obs::QueryMemoryExceeded
  kVerify = 9,        ///< ldb::VerifyError (static plan verifier rejection)
  kInternal = 10,     ///< ldb::InternalError / unexpected exceptions
  kShuttingDown = 11, ///< server is draining; no new work accepted
  kState = 12,        ///< unknown handle, FETCH without a result, ...
};

const char* ErrorCodeName(ErrorCode code);

/// A decoded frame: opcode plus raw payload bytes.
struct Frame {
  Opcode opcode = Opcode::kError;
  std::string payload;
};

/// Thrown by payload parsers (and the client) on malformed or unexpected
/// frames. Server-side it is answered with ERROR/kProtocol.
class WireError : public Error {
 public:
  explicit WireError(const std::string& msg) : Error("wire: " + msg) {}
};

// -- framing ------------------------------------------------------------------

/// Serializes one frame (length prefix + opcode + payload). Throws WireError
/// if the frame would exceed kMaxFrameBytes.
std::string EncodeFrame(Opcode op, const std::string& payload);

/// Incremental frame decoder. Feed() appends raw bytes; Next() extracts the
/// earliest complete frame. Handles torn reads of any granularity (down to
/// one byte at a time). A length prefix of zero or above kMaxFrameBytes puts
/// the decoder into a permanent error state — the connection is poisoned and
/// must be closed — *without* allocating the bogus length.
class FrameDecoder {
 public:
  /// `max_frame_bytes` can tighten (never loosen) the global ceiling.
  explicit FrameDecoder(uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_(max_frame_bytes < kMaxFrameBytes ? max_frame_bytes
                                                    : kMaxFrameBytes) {}

  void Feed(const char* data, size_t n);
  void Feed(const std::string& bytes) { Feed(bytes.data(), bytes.size()); }

  /// True if a complete frame was extracted into *out. False if more bytes
  /// are needed. Throws WireError (and latches error()) on a bad length.
  bool Next(Frame* out);

  bool error() const { return error_; }
  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buf_.size() - pos_; }

  /// Drops buffered bytes and clears the error latch (fresh connection).
  void Reset() {
    buf_.clear();
    pos_ = 0;
    error_ = false;
  }

 private:
  const uint32_t max_frame_;
  std::string buf_;
  size_t pos_ = 0;  ///< consumed prefix of buf_ (compacted lazily)
  bool error_ = false;
};

// -- payload primitives -------------------------------------------------------

/// Append-only payload builder (little-endian fixed ints, u32-length-prefixed
/// strings, doubles as IEEE bit patterns).
class PayloadWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F64(double v);
  void Str(const std::string& s);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Front-to-back payload reader. Every accessor throws WireError on
/// truncation; trailing unread bytes are legal (versioning rule).
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& payload) : p_(payload) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  double F64();
  std::string Str();

  size_t remaining() const { return p_.size() - pos_; }

 private:
  const char* Need(size_t n);
  const std::string& p_;
  size_t pos_ = 0;
};

// -- messages -----------------------------------------------------------------
//
// Each message has Encode() returning a full frame and a Parse(payload)
// factory throwing WireError on malformed input. Fields appear on the wire
// in declaration order.

/// HELLO: protocol version + the session options the connection wants.
/// Zero-valued options keep the server's defaults.
struct HelloRequest {
  uint32_t version = kProtocolVersion;
  uint64_t deadline_ms = 0;          ///< per-query deadline (0 = default)
  uint64_t memory_budget_bytes = 0;  ///< per-query budget (0 = default)
  uint32_t n_threads = 0;            ///< engine threads (0 = default)
  uint32_t morsel_size = 0;          ///< morsel rows (0 = default)
  // One reserved byte follows: Encode writes 1, the value older v2 servers
  // read as "slot engine"; Parse reads and ignores it.

  std::string Encode() const;
  static HelloRequest Parse(const std::string& payload);
};

struct HelloReply {
  uint32_t version = kProtocolVersion;  ///< negotiated: min(client, server)
  uint64_t session_id = 0;
  std::string server_info;  ///< free-form build/version string

  std::string Encode() const;
  static HelloReply Parse(const std::string& payload);
};

struct PrepareRequest {
  std::string oql;
  /// v2 trailing trace-context extension, same layout as ExecuteRequest's.
  /// A context sent on PREPARE becomes the connection's default: later
  /// EXECUTEs without their own context inherit it (fresh ids are still
  /// minted per query server-side; only parent/flags carry over).
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  uint8_t trace_flags = 0;

  std::string Encode() const;
  static PrepareRequest Parse(const std::string& payload);
};

struct PrepareReply {
  uint64_t handle = 0;  ///< connection-local; valid until the conn closes

  std::string Encode() const;
  static PrepareReply Parse(const std::string& payload);
};

/// BIND: parameter values for the connection's session. `$1` binds name "1".
/// Values travel in the dump text encoding (ValueToText).
struct BindRequest {
  uint8_t clear_first = 1;  ///< drop existing bindings before applying
  std::vector<std::pair<std::string, std::string>> params;  ///< (name, text)

  std::string Encode() const;
  static BindRequest Parse(const std::string& payload);

  /// Convenience used by clients: encode `v` with ValueToText.
  void Add(const std::string& name, const Value& v);
};

struct ExecuteRequest {
  static constexpr uint8_t kAdhoc = 0;
  static constexpr uint8_t kPrepared = 1;

  uint8_t mode = kAdhoc;
  std::string oql;      ///< kAdhoc only
  uint64_t handle = 0;  ///< kPrepared only
  uint64_t deadline_ms = 0;  ///< per-request override (0 = session setting)
  /// Rows the server may append as an immediate ROWS frame after EXEC_OK
  /// (0 = none; the client then FETCHes explicitly).
  uint32_t fetch_hint = 0;
  /// v2 trailing trace-context extension (docs/WIRE.md): 17 bytes — u64
  /// trace_id, u64 parent_span_id, u8 flags (obs::TraceContext::kForceSample).
  /// trace_id == 0 means untraced; a v1 peer simply never emits the bytes
  /// (Encode omits them when trace_id is 0) and ignores them on receipt.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  uint8_t trace_flags = 0;

  std::string Encode() const;
  static ExecuteRequest Parse(const std::string& payload);
};

struct ExecReply {
  uint64_t rows = 0;       ///< result cardinality (1 for scalar results)
  uint8_t scalar = 0;      ///< 1 when the result is not a collection
  uint8_t plan_cached = 0;
  double queue_ms = 0;
  double compile_ms = 0;
  double exec_ms = 0;
  /// v2 trailing extension: the server-side phase timings a client cannot
  /// measure itself, plus the request's trace id (the INTROSPECT key).
  /// Always emitted by a v2 server; zero when parsed from a v1 peer.
  double queue_wait_ms = 0;  ///< wire-read -> worker pickup
  double serialize_ms = 0;   ///< first ROWS batch serialization (0 when the
                             ///< request asked for no immediate batch)
  uint64_t trace_id = 0;     ///< 0 = server built without tracing

  std::string Encode() const;
  static ExecReply Parse(const std::string& payload);
};

struct FetchRequest {
  uint32_t max_rows = 0;  ///< 0 = server default batch size

  std::string Encode() const;
  static FetchRequest Parse(const std::string& payload);
};

/// ROWS: one batch of the pending result, each row in the dump text
/// encoding. `has_more` tells the client whether another FETCH will yield
/// rows — large results stream as many bounded batches, never one giant
/// response buffer.
struct RowsReply {
  uint8_t has_more = 0;
  std::vector<std::string> rows;

  std::string Encode() const;
  static RowsReply Parse(const std::string& payload);
};

/// INTROSPECT (v2): pull one observability artifact off the server without
/// shelling into the host — the remote twin of oqlsh's local `.metrics` /
/// `.querylog` and the bench harness's in-process snapshots. The reply is a
/// JSON document whose schema depends on `kind`.
struct IntrospectRequest {
  static constexpr uint8_t kMetrics = 0;        ///< MetricsSnapshot::ToJson
  static constexpr uint8_t kActiveQueries = 1;  ///< obs::ActiveQueriesToJson
  static constexpr uint8_t kQueryLog = 2;       ///< obs::QueryLogToJson of the
                                                ///< last `arg` records
  static constexpr uint8_t kTrace = 3;          ///< obs::TraceToChromeJson of
                                                ///< trace `trace_id` (0 = the
                                                ///< slowest kept trace)

  uint8_t kind = kMetrics;
  uint32_t arg = 0;       ///< kQueryLog: tail length (0 = server default)
  uint64_t trace_id = 0;  ///< kTrace: which trace

  std::string Encode() const;
  static IntrospectRequest Parse(const std::string& payload);
};

struct IntrospectReply {
  uint8_t kind = 0;  ///< echoes the request
  std::string json;

  std::string Encode() const;
  static IntrospectReply Parse(const std::string& payload);
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  std::string Encode() const;
  static ErrorReply Parse(const std::string& payload);
};

}  // namespace net
}  // namespace ldb

#endif  // LAMBDADB_NET_WIRE_H_
