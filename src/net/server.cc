#include "src/net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/net/net_util.h"
#include "src/obs/introspect.h"
#include "src/obs/resource.h"
#include "src/runtime/serialize.h"
#include "src/verify/verify.h"

namespace ldb {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string ErrnoString(const char* what) {
  return std::string(what) + ": " + ErrnoMessage(errno);
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Maps the structured error taxonomy onto wire error codes. Ordered from
/// most to least derived: QueryMemoryExceeded subclasses EvalError, every
/// service error subclasses Error.
ErrorCode CodeForError(const Error& e) {
  if (dynamic_cast<const WireError*>(&e) != nullptr) return ErrorCode::kProtocol;
  if (dynamic_cast<const AdmissionError*>(&e) != nullptr) {
    return ErrorCode::kAdmission;
  }
  if (dynamic_cast<const QueryCancelled*>(&e) != nullptr) {
    return ErrorCode::kCancelled;
  }
  if (dynamic_cast<const obs::QueryMemoryExceeded*>(&e) != nullptr) {
    return ErrorCode::kOverBudget;
  }
  if (dynamic_cast<const VerifyError*>(&e) != nullptr) return ErrorCode::kVerify;
  if (dynamic_cast<const ParseError*>(&e) != nullptr) return ErrorCode::kParse;
  if (dynamic_cast<const TypeError*>(&e) != nullptr) return ErrorCode::kType;
  if (dynamic_cast<const UnsupportedError*>(&e) != nullptr) {
    return ErrorCode::kUnsupported;
  }
  if (dynamic_cast<const InternalError*>(&e) != nullptr) {
    return ErrorCode::kInternal;
  }
  if (dynamic_cast<const EvalError*>(&e) != nullptr) return ErrorCode::kEval;
  return ErrorCode::kInternal;
}

}  // namespace

/// Per-connection state. The IO thread owns the socket, decoder, and epoll
/// mask; one worker at a time (guarded by `busy`) owns the request-handling
/// fields; the mutexes cover the handoff points.
struct Server::Conn {
  explicit Conn(uint32_t max_frame_bytes) : decoder(max_frame_bytes) {}

  // IO thread only.
  int fd = -1;
  std::string peer;
  FrameDecoder decoder;
  uint32_t events = 0;  ///< current epoll interest mask

  /// Orderly close: stop reading, close once the outbox drains and no frame
  /// is pending or being processed. Set by either thread.
  std::atomic<bool> close_after_flush{false};

  /// One decoded frame plus the moment the IO thread read it off the socket
  /// — the trace origin; DoExecute's queue_wait_ms is measured from it.
  struct PendingFrame {
    Frame frame;
    Clock::time_point recv;
  };

  /// Guards the IO-thread/worker handoff state.
  Mutex mu;
  std::deque<PendingFrame> pending LDB_GUARDED_BY(mu);
  bool busy LDB_GUARDED_BY(mu) = false;    ///< a worker is processing this
  bool closed LDB_GUARDED_BY(mu) = false;  ///< socket gone; workers drop
                                           ///< remaining frames
  std::shared_ptr<Session> session LDB_GUARDED_BY(mu);

  /// Guards the outbox. Workers append; the IO thread flushes.
  Mutex out_mu;
  std::string out LDB_GUARDED_BY(out_mu);
  size_t out_off LDB_GUARDED_BY(out_mu) = 0;

  // Worker-only state, deliberately NOT guarded: exactly one worker holds
  // the connection at a time (the `busy` flag is set/cleared under `mu`,
  // whose acquire/release edges order these fields between workers).
  bool hello_done = false;
  std::map<uint64_t, Statement> prepared;  ///< handle -> bound statement
  uint64_t next_handle = 0;
  /// Connection-default trace context from a PREPARE extension: later
  /// EXECUTEs without their own context inherit parent/flags with a fresh
  /// per-query id (valid() gates the inheritance).
  obs::TraceContext default_trace;
  bool has_cursor = false;
  bool cursor_scalar = false;
  Value result;
  size_t next_row = 0;

  size_t OutBytes() LDB_EXCLUDES(out_mu) {
    MutexLock lock(&out_mu);
    return out.size() - out_off;
  }
};

Server::Server(QueryService& svc, ServerOptions options)
    : svc_(svc), options_(std::move(options)) {
  obs::MetricsRegistry& m = svc_.metrics();
  m_conns_open_ = m.GetGauge("ldb_connections_open", "Open client connections");
  m_conns_total_ =
      m.GetCounter("ldb_connections_total", "Client connections accepted");
  m_bytes_sent_ =
      m.GetCounter("ldb_net_bytes_sent_total", "Bytes written to clients");
  m_bytes_recv_ =
      m.GetCounter("ldb_net_bytes_recv_total", "Bytes read from clients");
  m_protocol_errors_ = m.GetCounter("ldb_net_protocol_errors_total",
                                    "Malformed frames and unknown opcodes");
  for (Opcode op : {Opcode::kHello, Opcode::kPrepare, Opcode::kBind,
                    Opcode::kExecute, Opcode::kFetch, Opcode::kCancel,
                    Opcode::kGoodbye, Opcode::kIntrospect}) {
    m_frames_[static_cast<uint8_t>(op)] =
        m.GetCounter("ldb_net_frames_total", "Frames received by type",
                     {{"op", OpcodeName(op)}});
  }
}

Server::~Server() { Shutdown(); }

void Server::Start() {
  if (started_.exchange(true)) {
    throw InternalError("Server::Start called twice");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw Error(ErrnoString("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::string msg = ErrnoString("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(msg + " (" + options_.host + ":" +
                std::to_string(options_.port) + ")");
  }
  if (::listen(listen_fd_, 128) != 0) {
    std::string msg = ErrnoString("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(msg);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) throw Error(ErrnoString("epoll/eventfd"));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  int n_workers = options_.n_workers > 0 ? options_.n_workers : 1;
  workers_.reserve(n_workers);
  for (int i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  io_thread_ = std::thread([this] { IoLoop(); });
}

void Server::Shutdown() {
  if (!started_.load()) return;
  MutexLock lock(&shutdown_mu_);
  if (stopped_.load()) return;
  stopping_.store(true);
  uint64_t one = 1;
  if (wake_fd_ >= 0) {
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
  if (io_thread_.joinable()) io_thread_.join();
  {
    MutexLock qlock(&queue_mu_);
    workers_stop_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  wake_fd_ = epoll_fd_ = listen_fd_ = -1;
  stopped_.store(true);
}

ServerStats Server::stats() const {
  MutexLock lock(&stats_mu_);
  return stats_;
}

// -- IO thread ----------------------------------------------------------------

void Server::IoLoop() {
  using clock = std::chrono::steady_clock;
  std::vector<epoll_event> events(64);
  clock::time_point drain_start{};
  bool draining = false;
  bool cancelled_all = false;

  for (;;) {
    if (stopping_.load() && !draining) {
      draining = true;
      drain_start = clock::now();
      if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Stop reading everywhere; whatever is already decoded still runs.
      for (auto& [fd, c] : conns_) UpdateInterest(c);
    }
    if (draining) {
      if (AllConnsIdle()) break;
      double elapsed_ms = std::chrono::duration<double, std::milli>(
                              clock::now() - drain_start)
                              .count();
      if (!cancelled_all && elapsed_ms >= options_.drain_timeout_ms) {
        CancelAllSessions();
        cancelled_all = true;
      }
      if (elapsed_ms >= 2.0 * options_.drain_timeout_ms) break;
    }

    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()),
                         draining ? 20 : 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        AcceptAll();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t junk;
        while (::read(wake_fd_, &junk, sizeof(junk)) == sizeof(junk)) {
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> c = it->second;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(c);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) HandleWritable(c);
      if ((ev & EPOLLIN) != 0 && c->fd >= 0) HandleReadable(c);
    }

    // Outboxes touched by workers since the last pass.
    std::vector<std::weak_ptr<Conn>> dirty;
    {
      MutexLock lock(&dirty_mu_);
      dirty.swap(dirty_);
    }
    for (std::weak_ptr<Conn>& w : dirty) {
      if (std::shared_ptr<Conn> c = w.lock()) {
        if (c->fd >= 0) {
          FlushOutbox(c);
          if (c->fd >= 0) UpdateInterest(c);
        }
      }
    }
  }

  // Drained (or drain deadline exceeded): tear down what remains.
  std::vector<std::shared_ptr<Conn>> rest;
  rest.reserve(conns_.size());
  for (auto& [fd, c] : conns_) rest.push_back(c);
  for (const std::shared_ptr<Conn>& c : rest) CloseConn(c);
  conns_.clear();
}

void Server::AcceptAll() {
  for (;;) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: back to epoll
    }
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto c = std::make_shared<Conn>(options_.max_frame_bytes);
    c->fd = fd;
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
    c->peer = std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
    c->events = EPOLLIN;

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_[fd] = std::move(c);

    {
      MutexLock lock(&stats_mu_);
      ++stats_.connections_total;
      ++stats_.connections_open;
    }
    m_conns_total_->Inc();
    m_conns_open_->Add(1);
  }
}

void Server::HandleReadable(const std::shared_ptr<Conn>& c) {
  char buf[65536];
  bool throttle = false;
  while (!throttle) {
    ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      CloseConn(c);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(c);
      return;
    }
    {
      MutexLock lock(&stats_mu_);
      stats_.bytes_recv += static_cast<uint64_t>(n);
    }
    m_bytes_recv_->Inc(static_cast<uint64_t>(n));
    c->decoder.Feed(buf, static_cast<size_t>(n));

    try {
      Frame f;
      while (c->decoder.Next(&f)) {
        {
          MutexLock lock(&stats_mu_);
          ++stats_.frames_received;
        }
        OnFrame(c, std::move(f));
        if (c->fd < 0) return;
        size_t pending;
        {
          MutexLock lock(&c->mu);
          pending = c->pending.size();
        }
        if (pending >= kMaxPipeline || c->OutBytes() > kOutboxLimitBytes) {
          throttle = true;  // stop reading; UpdateInterest drops EPOLLIN
          break;
        }
      }
    } catch (const WireError& e) {
      // Bad length prefix: the decoder is poisoned; report and close once
      // the error frame is flushed.
      {
        MutexLock lock(&stats_mu_);
        ++stats_.protocol_errors;
      }
      m_protocol_errors_->Inc();
      ErrorReply err;
      err.code = ErrorCode::kProtocol;
      err.message = e.what();
      EnqueueReply(c, err.Encode());
      c->close_after_flush.store(true);
      break;
    }
  }
  FlushOutbox(c);
  if (c->fd >= 0) UpdateInterest(c);
}

void Server::HandleWritable(const std::shared_ptr<Conn>& c) {
  FlushOutbox(c);
  if (c->fd >= 0) UpdateInterest(c);
}

void Server::FlushOutbox(const std::shared_ptr<Conn>& c) {
  if (c->fd < 0) return;
  uint64_t sent = 0;
  bool dead = false;
  bool empty;
  {
    MutexLock lock(&c->out_mu);
    while (c->out_off < c->out.size()) {
      ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                         c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c->out_off += static_cast<size_t>(n);
        sent += static_cast<uint64_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      dead = true;
      break;
    }
    empty = c->out_off >= c->out.size();
    if (empty) {
      c->out.clear();
      c->out_off = 0;
    }
  }
  if (sent > 0) {
    MutexLock lock(&stats_mu_);
    stats_.bytes_sent += sent;
  }
  if (sent > 0) m_bytes_sent_->Inc(sent);
  if (dead) {
    CloseConn(c);
    return;
  }
  if (empty && c->close_after_flush.load()) {
    bool idle;
    {
      MutexLock lock(&c->mu);
      idle = !c->busy && c->pending.empty();
    }
    if (idle) CloseConn(c);
  }
}

void Server::UpdateInterest(const std::shared_ptr<Conn>& c) {
  if (c->fd < 0) return;
  size_t pending;
  {
    MutexLock lock(&c->mu);
    pending = c->pending.size();
  }
  size_t out_bytes = c->OutBytes();
  bool want_write = out_bytes > 0;
  bool want_read = !c->close_after_flush.load() && !c->decoder.error() &&
                   !stopping_.load() && pending < kMaxPipeline &&
                   out_bytes <= kOutboxLimitBytes;
  uint32_t mask =
      (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  if (mask != c->events) {
    epoll_event ev{};
    ev.events = mask;
    ev.data.fd = c->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
    c->events = mask;
  }
}

void Server::CloseConn(const std::shared_ptr<Conn>& c) {
  if (c->fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  conns_.erase(c->fd);
  c->fd = -1;
  std::shared_ptr<Session> session;
  {
    MutexLock lock(&c->mu);
    c->closed = true;
    c->pending.clear();
    session = c->session;
  }
  // A vanished client aborts whatever its session is running.
  if (session != nullptr) session->Cancel();
  {
    MutexLock lock(&stats_mu_);
    --stats_.connections_open;
  }
  m_conns_open_->Add(-1);
}

void Server::OnFrame(const std::shared_ptr<Conn>& c, Frame frame) {
  auto mit = m_frames_.find(static_cast<uint8_t>(frame.opcode));
  if (mit != m_frames_.end()) mit->second->Inc();

  switch (frame.opcode) {
    case Opcode::kCancel: {
      // Out-of-band on purpose: the IO thread applies the cancel so it is
      // not stuck in line behind the very query it aborts.
      std::shared_ptr<Session> session;
      {
        MutexLock lock(&c->mu);
        session = c->session;
      }
      if (session != nullptr) session->Cancel();
      EnqueueReply(c, EncodeFrame(Opcode::kCancelOk, std::string()));
      return;
    }
    case Opcode::kHello:
    case Opcode::kPrepare:
    case Opcode::kBind:
    case Opcode::kExecute:
    case Opcode::kFetch:
    case Opcode::kIntrospect:
    case Opcode::kGoodbye: {
      bool schedule = false;
      {
        MutexLock lock(&c->mu);
        c->pending.push_back(Conn::PendingFrame{std::move(frame), Clock::now()});
        if (!c->busy) {
          c->busy = true;
          schedule = true;
        }
      }
      if (schedule) ScheduleConn(c);
      return;
    }
    default: {
      // Unknown opcode: an error frame, not a connection drop.
      {
        MutexLock lock(&stats_mu_);
        ++stats_.protocol_errors;
      }
      m_protocol_errors_->Inc();
      ErrorReply err;
      err.code = ErrorCode::kProtocol;
      err.message = std::string("unknown opcode ") + OpcodeName(frame.opcode);
      EnqueueReply(c, err.Encode());
      return;
    }
  }
}

bool Server::AllConnsIdle() {
  for (auto& [fd, c] : conns_) {
    {
      MutexLock lock(&c->mu);
      if (c->busy || !c->pending.empty()) return false;
    }
    if (c->OutBytes() > 0) return false;
  }
  return true;
}

void Server::CancelAllSessions() {
  for (auto& [fd, c] : conns_) {
    std::shared_ptr<Session> session;
    {
      MutexLock lock(&c->mu);
      session = c->session;
    }
    if (session != nullptr) session->Cancel();
  }
}

// -- worker side --------------------------------------------------------------

void Server::ScheduleConn(const std::shared_ptr<Conn>& c) {
  {
    MutexLock lock(&queue_mu_);
    queue_.push_back(c);
  }
  queue_cv_.NotifyOne();
}

void Server::NotifyIo(const std::shared_ptr<Conn>& c) {
  {
    MutexLock lock(&dirty_mu_);
    dirty_.push_back(c);
  }
  uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void Server::EnqueueReply(const std::shared_ptr<Conn>& c, std::string bytes) {
  {
    MutexLock lock(&c->out_mu);
    c->out += bytes;
  }
  NotifyIo(c);
}

void Server::EnqueueError(const std::shared_ptr<Conn>& c, ErrorCode code,
                          const std::string& message) {
  ErrorReply err;
  err.code = code;
  err.message = message;
  EnqueueReply(c, err.Encode());
}

void Server::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Conn> c;
    {
      MutexLock lock(&queue_mu_);
      while (!workers_stop_ && queue_.empty()) queue_cv_.Wait(queue_mu_);
      if (queue_.empty()) return;  // workers_stop_ and nothing left
      c = std::move(queue_.front());
      queue_.pop_front();
    }
    for (;;) {
      Conn::PendingFrame f;
      {
        MutexLock lock(&c->mu);
        if (c->closed) c->pending.clear();
        if (c->pending.empty()) {
          c->busy = false;
          break;
        }
        f = std::move(c->pending.front());
        c->pending.pop_front();
      }
      ProcessFrame(c, f.frame, f.recv);
    }
    NotifyIo(c);  // pending drained: flush replies, maybe re-enable reads
  }
}

void Server::ProcessFrame(const std::shared_ptr<Conn>& c, const Frame& frame,
                          Clock::time_point recv) {
  try {
    if (!c->hello_done && frame.opcode != Opcode::kHello) {
      EnqueueError(c, ErrorCode::kProtocol, "HELLO must be the first frame");
      c->close_after_flush.store(true);
      return;
    }
    switch (frame.opcode) {
      case Opcode::kHello:
        DoHello(c, frame);
        break;
      case Opcode::kPrepare:
        DoPrepare(c, frame);
        break;
      case Opcode::kBind:
        DoBind(c, frame);
        break;
      case Opcode::kExecute:
        DoExecute(c, frame, recv);
        break;
      case Opcode::kFetch:
        DoFetch(c, frame);
        break;
      case Opcode::kIntrospect:
        DoIntrospect(c, frame);
        break;
      case Opcode::kGoodbye:
        EnqueueReply(c, EncodeFrame(Opcode::kGoodbyeOk, std::string()));
        c->close_after_flush.store(true);
        break;
      default:
        EnqueueError(c, ErrorCode::kProtocol,
                     std::string("unexpected opcode ") +
                         OpcodeName(frame.opcode));
        break;
    }
  } catch (const Error& e) {
    EnqueueError(c, CodeForError(e), e.what());
  } catch (const std::exception& e) {
    EnqueueError(c, ErrorCode::kInternal, e.what());
  }
}

void Server::DoHello(const std::shared_ptr<Conn>& c, const Frame& f) {
  HelloRequest req = HelloRequest::Parse(f.payload);
  if (c->hello_done) {
    EnqueueError(c, ErrorCode::kProtocol, "duplicate HELLO");
    return;
  }
  if (req.version == 0) {
    EnqueueError(c, ErrorCode::kProtocol, "client protocol version 0");
    c->close_after_flush.store(true);
    return;
  }

  SessionOptions so = options_.session;
  if (req.deadline_ms != 0) {
    so.deadline_ms = static_cast<int64_t>(req.deadline_ms);
  }
  if (req.memory_budget_bytes != 0) {
    so.memory_budget_bytes = static_cast<size_t>(req.memory_budget_bytes);
  }
  if (req.n_threads != 0) so.n_threads = static_cast<int>(req.n_threads);
  if (req.morsel_size != 0) so.morsel_size = req.morsel_size;

  std::shared_ptr<Session> session = svc_.OpenSession(so);
  session->set_peer(c->peer);
  {
    MutexLock lock(&c->mu);
    c->session = session;
  }
  c->hello_done = true;

  HelloReply rep;
  rep.version = std::min(req.version, kProtocolVersion);
  rep.session_id = session->id();
  rep.server_info = "lambdadb ldb_server (wire v" +
                    std::to_string(kProtocolVersion) + ")";
  EnqueueReply(c, rep.Encode());
}

void Server::DoPrepare(const std::shared_ptr<Conn>& c, const Frame& f) {
  PrepareRequest req = PrepareRequest::Parse(f.payload);
  if (c->prepared.size() >= kMaxPreparedPerConn) {
    EnqueueError(c, ErrorCode::kState,
                 "prepared-statement limit reached (" +
                     std::to_string(kMaxPreparedPerConn) +
                     " handles per connection)");
    return;
  }
  // Syntax errors surface at PREPARE time; the plan is resolved at the
  // first EXECUTE and stays bound to the handle after that.
  Statement stmt = QueryService::Prepare(req.oql);
  uint64_t handle = ++c->next_handle;
  c->prepared[handle] = std::move(stmt);
  if (req.trace_id != 0) {
    c->default_trace.trace_id = req.trace_id;
    c->default_trace.parent_span_id = req.parent_span_id;
    c->default_trace.flags = req.trace_flags;
  }
  PrepareReply rep;
  rep.handle = handle;
  EnqueueReply(c, rep.Encode());
}

void Server::DoBind(const std::shared_ptr<Conn>& c, const Frame& f) {
  BindRequest req = BindRequest::Parse(f.payload);
  std::shared_ptr<Session> session;
  {
    MutexLock lock(&c->mu);
    session = c->session;
  }
  if (req.clear_first != 0) session->ClearBindings();
  for (const auto& [name, text] : req.params) {
    session->Bind(name, ValueFromText(text));
  }
  EnqueueReply(c, EncodeFrame(Opcode::kBindOk, std::string()));
}

void Server::DoExecute(const std::shared_ptr<Conn>& c, const Frame& f,
                       Clock::time_point recv) {
  ExecuteRequest req = ExecuteRequest::Parse(f.payload);
  if (stopping_.load()) {
    EnqueueError(c, ErrorCode::kShuttingDown, "server is draining");
    return;
  }
  Statement adhoc;
  Statement* stmt = &adhoc;
  if (req.mode == ExecuteRequest::kPrepared) {
    auto it = c->prepared.find(req.handle);
    if (it == c->prepared.end()) {
      EnqueueError(c, ErrorCode::kState,
                   "unknown prepared-statement handle " +
                       std::to_string(req.handle));
      return;
    }
    stmt = &it->second;
  } else {
    adhoc.oql = std::move(req.oql);
  }

  std::shared_ptr<Session> session;
  {
    MutexLock lock(&c->mu);
    session = c->session;
  }

  // A new execute invalidates the previous cursor either way.
  c->has_cursor = false;
  c->result = Value();
  c->next_row = 0;

  int64_t saved_deadline = session->options().deadline_ms;
  if (req.deadline_ms != 0) {
    session->options().deadline_ms = static_cast<int64_t>(req.deadline_ms);
  }

  // The request's own trace context, else the connection default from
  // PREPARE (fresh id per query); with neither, the service mints an id.
  // The wait since the wire read feeds queue_wait_ms either way.
  obs::QueryLogRecord rec;
  obs::TraceContext tctx{req.trace_id, req.parent_span_id, req.trace_flags};
  if (!tctx.valid() && c->default_trace.valid()) {
    tctx = c->default_trace;
    tctx.trace_id = obs::MintTraceId();
  }
  rec.trace_id = tctx.trace_id;
  rec.parent_span_id = tctx.parent_span_id;
  rec.force_sample = (tctx.flags & obs::TraceContext::kForceSample) != 0;
  rec.queue_wait_ms = MsBetween(recv, Clock::now());

  Value result;
  try {
    result = svc_.Execute(*session, *stmt, &rec);
  } catch (...) {
    session->options().deadline_ms = saved_deadline;
    throw;
  }
  session->options().deadline_ms = saved_deadline;

  c->result = std::move(result);
  c->cursor_scalar = !c->result.is_collection();
  c->next_row = 0;
  c->has_cursor = true;

  ExecReply rep;
  rep.rows = c->cursor_scalar
                 ? 1
                 : static_cast<uint64_t>(c->result.AsElems().size());
  rep.scalar = c->cursor_scalar ? 1 : 0;
  rep.plan_cached = rec.plan_cached ? 1 : 0;
  rep.queue_ms = rec.queue_ms;
  rep.compile_ms = rec.compile_ms;
  rep.exec_ms = rec.exec_ms;
  rep.queue_wait_ms = rec.queue_wait_ms;
  rep.trace_id = rec.trace_id;

  if (req.fetch_hint > 0 && c->has_cursor) {
    // Serialize the immediate batch BEFORE encoding EXEC_OK so its timing
    // rides the reply (and lands on the query-log record post-hoc); the
    // frames still go out in EXEC_OK-then-ROWS order.
    Clock::time_point ser0 = Clock::now();
    std::string batch = NextBatch(c, req.fetch_hint);
    rep.serialize_ms = MsBetween(ser0, Clock::now());
    svc_.query_log().RecordSerialize(rec.id, MsBetween(recv, ser0),
                                     rep.serialize_ms);
    EnqueueReply(c, rep.Encode());
    EnqueueReply(c, std::move(batch));
  } else {
    EnqueueReply(c, rep.Encode());
  }
}

void Server::DoFetch(const std::shared_ptr<Conn>& c, const Frame& f) {
  FetchRequest req = FetchRequest::Parse(f.payload);
  if (!c->has_cursor) {
    EnqueueError(c, ErrorCode::kState, "FETCH with no pending result");
    return;
  }
  uint32_t n = req.max_rows != 0 ? req.max_rows : kDefaultBatchRows;
  EnqueueReply(c, NextBatch(c, n));
}

void Server::DoIntrospect(const std::shared_ptr<Conn>& c, const Frame& f) {
  IntrospectRequest req = IntrospectRequest::Parse(f.payload);
  IntrospectReply rep;
  rep.kind = req.kind;
  switch (req.kind) {
    case IntrospectRequest::kMetrics:
      rep.json = svc_.metrics().Snapshot().ToJson();
      break;
    case IntrospectRequest::kActiveQueries:
      rep.json = obs::ActiveQueriesToJson(svc_.ActiveQueries());
      break;
    case IntrospectRequest::kQueryLog: {
      size_t n = req.arg != 0 ? req.arg : 32;
      rep.json = obs::QueryLogToJson(svc_.query_log().Tail(n));
      break;
    }
    case IntrospectRequest::kTrace: {
      obs::QueryLogRecord rec;
      if (!svc_.query_log().Find(req.trace_id, &rec)) {
        EnqueueError(c, ErrorCode::kState,
                     req.trace_id == 0
                         ? "trace ring is empty"
                         : "trace " + obs::TraceIdHex(req.trace_id) +
                               " is not in the ring (sampled out or evicted)");
        return;
      }
      rep.json = obs::TraceToChromeJson(rec);
      break;
    }
    default:
      EnqueueError(c, ErrorCode::kState,
                   "unknown INTROSPECT kind " + std::to_string(req.kind));
      return;
  }
  EnqueueReply(c, rep.Encode());
}

std::string Server::NextBatch(const std::shared_ptr<Conn>& c,
                              uint32_t max_rows) {
  RowsReply rep;
  size_t total;
  if (c->cursor_scalar) {
    total = 1;
    if (c->next_row == 0 && max_rows > 0) {
      rep.rows.push_back(ValueToText(c->result));
      c->next_row = 1;
    }
  } else {
    const Elems& elems = c->result.AsElems();
    total = elems.size();
    size_t batch_bytes = 0;
    while (c->next_row < total && rep.rows.size() < max_rows &&
           batch_bytes < kBatchLimitBytes) {
      std::string text = ValueToText(elems[c->next_row]);
      ++c->next_row;
      batch_bytes += text.size() + 8;
      rep.rows.push_back(std::move(text));
    }
  }
  rep.has_more = c->next_row < total ? 1 : 0;
  if (rep.has_more == 0) {
    // Cursor exhausted: release the result now rather than at the next
    // EXECUTE, so a drained large result stops holding memory.
    c->has_cursor = false;
    c->result = Value();
    c->next_row = 0;
  }
  return rep.Encode();
}

}  // namespace net
}  // namespace ldb
