#include "src/net/wire.h"

#include <cstring>

#include "src/runtime/serialize.h"

namespace ldb {
namespace net {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kHello: return "HELLO";
    case Opcode::kPrepare: return "PREPARE";
    case Opcode::kBind: return "BIND";
    case Opcode::kExecute: return "EXECUTE";
    case Opcode::kFetch: return "FETCH";
    case Opcode::kCancel: return "CANCEL";
    case Opcode::kGoodbye: return "GOODBYE";
    case Opcode::kIntrospect: return "INTROSPECT";
    case Opcode::kHelloOk: return "HELLO_OK";
    case Opcode::kPrepareOk: return "PREPARE_OK";
    case Opcode::kBindOk: return "BIND_OK";
    case Opcode::kExecOk: return "EXEC_OK";
    case Opcode::kRows: return "ROWS";
    case Opcode::kCancelOk: return "CANCEL_OK";
    case Opcode::kGoodbyeOk: return "GOODBYE_OK";
    case Opcode::kIntrospectOk: return "INTROSPECT_OK";
    case Opcode::kError: return "ERROR";
  }
  return "OP_??";
}

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kProtocol: return "PROTOCOL";
    case ErrorCode::kParse: return "PARSE";
    case ErrorCode::kType: return "TYPE";
    case ErrorCode::kUnsupported: return "UNSUPPORTED";
    case ErrorCode::kEval: return "EVAL";
    case ErrorCode::kCancelled: return "CANCELLED";
    case ErrorCode::kAdmission: return "ADMISSION";
    case ErrorCode::kOverBudget: return "OVER_BUDGET";
    case ErrorCode::kVerify: return "VERIFY";
    case ErrorCode::kInternal: return "INTERNAL";
    case ErrorCode::kShuttingDown: return "SHUTTING_DOWN";
    case ErrorCode::kState: return "STATE";
  }
  return "CODE_??";
}

// -- framing ------------------------------------------------------------------

namespace {

void PutU32(std::string* out, uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(b, 4);
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

}  // namespace

std::string EncodeFrame(Opcode op, const std::string& payload) {
  if (payload.size() + 1 > kMaxFrameBytes) {
    throw WireError("frame of " + std::to_string(payload.size() + 1) +
                    " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                    "-byte frame ceiling");
  }
  std::string out;
  out.reserve(5 + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size() + 1));
  out.push_back(static_cast<char>(op));
  out.append(payload);
  return out;
}

void FrameDecoder::Feed(const char* data, size_t n) {
  if (error_) return;  // poisoned: drop everything, the conn must close
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer forever.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

bool FrameDecoder::Next(Frame* out) {
  if (error_) throw WireError("decoder is in the error state");
  if (buf_.size() - pos_ < 4) return false;
  uint32_t length = GetU32(buf_.data() + pos_);
  // Validate before any allocation sized by `length`: a hostile prefix of
  // 0xFFFFFFFF must cost nothing.
  if (length == 0 || length > max_frame_) {
    error_ = true;
    throw WireError("frame length " + std::to_string(length) +
                    " outside (0, " + std::to_string(max_frame_) + "]");
  }
  if (buf_.size() - pos_ < 4 + static_cast<size_t>(length)) return false;
  out->opcode = static_cast<Opcode>(
      static_cast<unsigned char>(buf_[pos_ + 4]));
  out->payload.assign(buf_, pos_ + 5, length - 1);
  pos_ += 4 + static_cast<size_t>(length);
  return true;
}

// -- payload primitives -------------------------------------------------------

void PayloadWriter::U16(uint16_t v) {
  out_.push_back(static_cast<char>(v));
  out_.push_back(static_cast<char>(v >> 8));
}

void PayloadWriter::U32(uint32_t v) { PutU32(&out_, v); }

void PayloadWriter::U64(uint64_t v) {
  PutU32(&out_, static_cast<uint32_t>(v));
  PutU32(&out_, static_cast<uint32_t>(v >> 32));
}

void PayloadWriter::F64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  U64(bits);
}

void PayloadWriter::Str(const std::string& s) {
  if (s.size() > kMaxFrameBytes) {
    throw WireError("string of " + std::to_string(s.size()) +
                    " bytes exceeds the frame ceiling");
  }
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s);
}

const char* PayloadReader::Need(size_t n) {
  if (p_.size() - pos_ < n) {
    throw WireError("payload truncated: need " + std::to_string(n) +
                    " bytes, have " + std::to_string(p_.size() - pos_));
  }
  const char* at = p_.data() + pos_;
  pos_ += n;
  return at;
}

uint8_t PayloadReader::U8() {
  return static_cast<unsigned char>(*Need(1));
}

uint16_t PayloadReader::U16() {
  const char* p = Need(2);
  return static_cast<uint16_t>(static_cast<unsigned char>(p[0]) |
                               static_cast<unsigned char>(p[1]) << 8);
}

uint32_t PayloadReader::U32() { return GetU32(Need(4)); }

uint64_t PayloadReader::U64() {
  uint64_t lo = U32();
  uint64_t hi = U32();
  return lo | hi << 32;
}

double PayloadReader::F64() {
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string PayloadReader::Str() {
  uint32_t n = U32();
  // The frame ceiling already bounds n transitively (the payload fits in a
  // frame), but check against remaining() so a lying inner length cannot
  // trigger a large allocation either.
  if (n > remaining()) {
    throw WireError("string length " + std::to_string(n) +
                    " exceeds the remaining payload");
  }
  return std::string(Need(n), n);
}

// -- messages -----------------------------------------------------------------

std::string HelloRequest::Encode() const {
  PayloadWriter w;
  w.U32(version);
  w.U64(deadline_ms);
  w.U64(memory_budget_bytes);
  w.U32(n_threads);
  w.U32(morsel_size);
  w.U8(1);  // reserved
  return EncodeFrame(Opcode::kHello, w.Take());
}

HelloRequest HelloRequest::Parse(const std::string& payload) {
  PayloadReader r(payload);
  HelloRequest m;
  m.version = r.U32();
  m.deadline_ms = r.U64();
  m.memory_budget_bytes = r.U64();
  m.n_threads = r.U32();
  m.morsel_size = r.U32();
  r.U8();  // reserved
  return m;
}

std::string HelloReply::Encode() const {
  PayloadWriter w;
  w.U32(version);
  w.U64(session_id);
  w.Str(server_info);
  return EncodeFrame(Opcode::kHelloOk, w.Take());
}

HelloReply HelloReply::Parse(const std::string& payload) {
  PayloadReader r(payload);
  HelloReply m;
  m.version = r.U32();
  m.session_id = r.U64();
  m.server_info = r.Str();
  return m;
}

namespace {

/// The 17-byte v2 trace-context extension shared by EXECUTE and PREPARE.
/// Emitted only when a context is present; parsed only when the trailing
/// bytes are actually there (a v1 peer's payload ends before them).
void WriteTraceContext(PayloadWriter* w, uint64_t trace_id,
                       uint64_t parent_span_id, uint8_t flags) {
  if (trace_id == 0) return;
  w->U64(trace_id);
  w->U64(parent_span_id);
  w->U8(flags);
}

void ReadTraceContext(PayloadReader* r, uint64_t* trace_id,
                      uint64_t* parent_span_id, uint8_t* flags) {
  if (r->remaining() < 17) return;
  *trace_id = r->U64();
  *parent_span_id = r->U64();
  *flags = r->U8();
}

}  // namespace

std::string PrepareRequest::Encode() const {
  PayloadWriter w;
  w.Str(oql);
  WriteTraceContext(&w, trace_id, parent_span_id, trace_flags);
  return EncodeFrame(Opcode::kPrepare, w.Take());
}

PrepareRequest PrepareRequest::Parse(const std::string& payload) {
  PayloadReader r(payload);
  PrepareRequest m;
  m.oql = r.Str();
  ReadTraceContext(&r, &m.trace_id, &m.parent_span_id, &m.trace_flags);
  return m;
}

std::string PrepareReply::Encode() const {
  PayloadWriter w;
  w.U64(handle);
  return EncodeFrame(Opcode::kPrepareOk, w.Take());
}

PrepareReply PrepareReply::Parse(const std::string& payload) {
  PayloadReader r(payload);
  PrepareReply m;
  m.handle = r.U64();
  return m;
}

std::string BindRequest::Encode() const {
  PayloadWriter w;
  w.U8(clear_first);
  w.U32(static_cast<uint32_t>(params.size()));
  for (const auto& [name, text] : params) {
    w.Str(name);
    w.Str(text);
  }
  return EncodeFrame(Opcode::kBind, w.Take());
}

BindRequest BindRequest::Parse(const std::string& payload) {
  PayloadReader r(payload);
  BindRequest m;
  m.clear_first = r.U8();
  uint32_t n = r.U32();
  // Each param costs >= 8 bytes of length prefixes, so this bound makes a
  // lying count fail fast instead of reserving a huge vector.
  if (static_cast<size_t>(n) * 8 > r.remaining() + 8) {
    throw WireError("bind count " + std::to_string(n) +
                    " exceeds the payload size");
  }
  m.params.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name = r.Str();
    std::string text = r.Str();
    m.params.emplace_back(std::move(name), std::move(text));
  }
  return m;
}

void BindRequest::Add(const std::string& name, const Value& v) {
  params.emplace_back(name, ValueToText(v));
}

std::string ExecuteRequest::Encode() const {
  PayloadWriter w;
  w.U8(mode);
  if (mode == kAdhoc) {
    w.Str(oql);
  } else {
    w.U64(handle);
  }
  w.U64(deadline_ms);
  w.U32(fetch_hint);
  WriteTraceContext(&w, trace_id, parent_span_id, trace_flags);
  return EncodeFrame(Opcode::kExecute, w.Take());
}

ExecuteRequest ExecuteRequest::Parse(const std::string& payload) {
  PayloadReader r(payload);
  ExecuteRequest m;
  m.mode = r.U8();
  if (m.mode == kAdhoc) {
    m.oql = r.Str();
  } else if (m.mode == kPrepared) {
    m.handle = r.U64();
  } else {
    throw WireError("EXECUTE mode " + std::to_string(m.mode) +
                    " is neither ad-hoc (0) nor prepared (1)");
  }
  m.deadline_ms = r.U64();
  m.fetch_hint = r.U32();
  ReadTraceContext(&r, &m.trace_id, &m.parent_span_id, &m.trace_flags);
  return m;
}

std::string ExecReply::Encode() const {
  PayloadWriter w;
  w.U64(rows);
  w.U8(scalar);
  w.U8(plan_cached);
  w.F64(queue_ms);
  w.F64(compile_ms);
  w.F64(exec_ms);
  // v2 trailing extension (always emitted; a v1 client ignores it).
  w.F64(queue_wait_ms);
  w.F64(serialize_ms);
  w.U64(trace_id);
  return EncodeFrame(Opcode::kExecOk, w.Take());
}

ExecReply ExecReply::Parse(const std::string& payload) {
  PayloadReader r(payload);
  ExecReply m;
  m.rows = r.U64();
  m.scalar = r.U8();
  m.plan_cached = r.U8();
  m.queue_ms = r.F64();
  m.compile_ms = r.F64();
  m.exec_ms = r.F64();
  if (r.remaining() >= 24) {
    m.queue_wait_ms = r.F64();
    m.serialize_ms = r.F64();
    m.trace_id = r.U64();
  }
  return m;
}

std::string FetchRequest::Encode() const {
  PayloadWriter w;
  w.U32(max_rows);
  return EncodeFrame(Opcode::kFetch, w.Take());
}

FetchRequest FetchRequest::Parse(const std::string& payload) {
  PayloadReader r(payload);
  FetchRequest m;
  m.max_rows = r.U32();
  return m;
}

std::string RowsReply::Encode() const {
  PayloadWriter w;
  w.U8(has_more);
  w.U32(static_cast<uint32_t>(rows.size()));
  for (const std::string& row : rows) w.Str(row);
  return EncodeFrame(Opcode::kRows, w.Take());
}

RowsReply RowsReply::Parse(const std::string& payload) {
  PayloadReader r(payload);
  RowsReply m;
  m.has_more = r.U8();
  uint32_t n = r.U32();
  if (static_cast<size_t>(n) * 4 > r.remaining() + 4) {
    throw WireError("row count " + std::to_string(n) +
                    " exceeds the payload size");
  }
  m.rows.reserve(n);
  for (uint32_t i = 0; i < n; ++i) m.rows.push_back(r.Str());
  return m;
}

std::string IntrospectRequest::Encode() const {
  PayloadWriter w;
  w.U8(kind);
  w.U32(arg);
  w.U64(trace_id);
  return EncodeFrame(Opcode::kIntrospect, w.Take());
}

IntrospectRequest IntrospectRequest::Parse(const std::string& payload) {
  PayloadReader r(payload);
  IntrospectRequest m;
  m.kind = r.U8();
  m.arg = r.U32();
  m.trace_id = r.U64();
  return m;
}

std::string IntrospectReply::Encode() const {
  PayloadWriter w;
  w.U8(kind);
  w.Str(json);
  return EncodeFrame(Opcode::kIntrospectOk, w.Take());
}

IntrospectReply IntrospectReply::Parse(const std::string& payload) {
  PayloadReader r(payload);
  IntrospectReply m;
  m.kind = r.U8();
  m.json = r.Str();
  return m;
}

std::string ErrorReply::Encode() const {
  PayloadWriter w;
  w.U16(static_cast<uint16_t>(code));
  w.Str(message);
  return EncodeFrame(Opcode::kError, w.Take());
}

ErrorReply ErrorReply::Parse(const std::string& payload) {
  PayloadReader r(payload);
  ErrorReply m;
  m.code = static_cast<ErrorCode>(r.U16());
  m.message = r.Str();
  return m;
}

}  // namespace net
}  // namespace ldb
