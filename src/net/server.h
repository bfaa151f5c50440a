// ldb_server's network engine: a non-blocking epoll accept/IO loop feeding a
// worker thread pool, speaking the length-prefixed wire protocol of
// src/net/wire.h over TCP (docs/WIRE.md).
//
// Threading model:
//
//   * ONE IO thread owns every socket: it accepts, reads, decodes frames,
//     and performs all writes. Decoded frames are queued per connection and
//     the connection is handed to the worker pool; CANCEL frames are the
//     exception — the IO thread applies them inline (Session::Cancel is
//     thread-safe), so a cancel overtakes the queries queued in front of it.
//   * N worker threads process one connection at a time, one frame at a
//     time, in arrival order — a connection's requests are serialized (its
//     Session runs one query at a time) while distinct connections execute
//     concurrently. Workers never touch sockets: replies append to the
//     connection's outbox and an eventfd nudges the IO thread to flush.
//
// Backpressure is layered, never a connection drop:
//
//   * per-connection: reading stops (EPOLLIN removed) while the outbox
//     exceeds kOutboxLimitBytes or more than kMaxPipeline frames are
//     queued — a client that pipelines blindly or refuses to drain results
//     is throttled by TCP flow control;
//   * service-wide: every EXECUTE runs through QueryService's admission
//     gate. Workers blocked in the admission queue ARE the wait queue; once
//     it is full, AdmissionError surfaces to the client as an ERROR frame
//     with code ADMISSION (and ldb_queries_rejected increments) while the
//     connection stays healthy.
//
// Sessions map 1:1 to connections: HELLO opens the session (carrying the
// client's option overrides), the remote "ip:port" flows into the query log
// and ActiveQueries(), and closing the connection cancels whatever that
// session is running.
//
// Shutdown() drains gracefully under a deadline: stop accepting, let
// in-flight and already-queued requests finish, flush outboxes; at
// `drain_timeout_ms` every session is cancelled (queries abort via the
// normal cooperative path and the ERROR frames still go out), and a second
// timeout force-closes whatever remains.

#ifndef LAMBDADB_NET_SERVER_H_
#define LAMBDADB_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/thread_annotations.h"
#include "src/net/wire.h"
#include "src/service/query_service.h"
#include "src/service/session.h"

namespace ldb {
namespace net {

/// Prepared-statement handles one connection may hold. Each handle keeps
/// its compiled plan alive (even past plan-cache eviction), so the table is
/// bounded: a PREPARE past the cap gets ERROR(STATE) and the connection and
/// its earlier handles keep working.
constexpr size_t kMaxPreparedPerConn = 1024;
/// Stop reading from a connection while its outbox holds more than this.
constexpr size_t kOutboxLimitBytes = 4u << 20;
/// Stop reading while this many decoded frames await processing.
constexpr size_t kMaxPipeline = 8;
/// FETCH batch size when the request says 0.
constexpr uint32_t kDefaultBatchRows = 1024;
/// Soft byte bound per ROWS frame: a batch closes once it crosses this, so
/// huge rows never inflate one response buffer.
constexpr size_t kBatchLimitBytes = 1u << 20;

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; bound_port() reports the kernel's choice (tests use
  /// this to avoid port races).
  uint16_t port = 0;
  /// Worker threads. Sized above max_concurrent + max_queue, the surplus
  /// converts into immediate ADMISSION errors — the intended backpressure.
  int n_workers = 4;
  /// Per-connection frame ceiling (tightens wire::kMaxFrameBytes).
  uint32_t max_frame_bytes = kMaxFrameBytes;
  /// Graceful-drain budget; after it, in-flight queries are cancelled, and
  /// after the same interval again the sockets are closed regardless.
  int drain_timeout_ms = 5000;
  /// Session defaults for connections; HELLO fields override per-connection.
  SessionOptions session;
};

/// Counters for tests and the server binary's exit summary (the same values
/// feed the ldb_net_* metrics in the service registry).
struct ServerStats {
  uint64_t connections_total = 0;
  uint64_t connections_open = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_recv = 0;
  uint64_t frames_received = 0;
  uint64_t protocol_errors = 0;
};

class Server {
 public:
  /// The service must outlive the server. Metrics register into
  /// svc.metrics() under the ldb_net_* / ldb_connections_* names.
  Server(QueryService& svc, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the IO + worker threads. Throws ldb::Error
  /// on bind/listen failure.
  void Start();

  /// Port actually bound (== options.port unless that was 0).
  uint16_t bound_port() const { return bound_port_; }

  /// Graceful drain then stop (see file comment). Idempotent; blocks until
  /// every thread is joined. Safe to call from a signal-watching thread.
  void Shutdown();

  bool running() const { return started_ && !stopped_; }
  ServerStats stats() const LDB_EXCLUDES(stats_mu_);

 private:
  struct Conn;

  // IO-thread side.
  void IoLoop();
  void AcceptAll();
  void HandleReadable(const std::shared_ptr<Conn>& c);
  void HandleWritable(const std::shared_ptr<Conn>& c);
  void FlushOutbox(const std::shared_ptr<Conn>& c);
  void UpdateInterest(const std::shared_ptr<Conn>& c);
  void CloseConn(const std::shared_ptr<Conn>& c);
  void OnFrame(const std::shared_ptr<Conn>& c, Frame frame);
  bool AllConnsIdle();
  void CancelAllSessions();

  // Worker side. `recv` is the IO thread's wire-read timestamp for the
  // frame — the request-trace origin, and what queue_wait_ms (wire read ->
  // worker pickup) is measured from.
  void WorkerLoop() LDB_EXCLUDES(queue_mu_);
  void ProcessFrame(const std::shared_ptr<Conn>& c, const Frame& frame,
                    std::chrono::steady_clock::time_point recv);
  void EnqueueReply(const std::shared_ptr<Conn>& c, std::string bytes);
  void EnqueueError(const std::shared_ptr<Conn>& c, ErrorCode code,
                    const std::string& message);
  void ScheduleConn(const std::shared_ptr<Conn>& c) LDB_EXCLUDES(queue_mu_);
  void NotifyIo(const std::shared_ptr<Conn>& c) LDB_EXCLUDES(dirty_mu_);

  // Frame handlers (worker thread).
  void DoHello(const std::shared_ptr<Conn>& c, const Frame& f);
  void DoPrepare(const std::shared_ptr<Conn>& c, const Frame& f);
  void DoBind(const std::shared_ptr<Conn>& c, const Frame& f);
  void DoExecute(const std::shared_ptr<Conn>& c, const Frame& f,
                 std::chrono::steady_clock::time_point recv);
  void DoFetch(const std::shared_ptr<Conn>& c, const Frame& f);
  void DoIntrospect(const std::shared_ptr<Conn>& c, const Frame& f);

  /// Builds one bounded ROWS frame from the connection's cursor.
  std::string NextBatch(const std::shared_ptr<Conn>& c, uint32_t max_rows);

  QueryService& svc_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t bound_port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  Mutex shutdown_mu_;  ///< serializes concurrent Shutdown() calls

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  /// Connections, IO thread only (workers hold shared_ptrs handed to them).
  std::map<int, std::shared_ptr<Conn>> conns_;

  /// Worker queue: connections with pending frames.
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<std::shared_ptr<Conn>> queue_ LDB_GUARDED_BY(queue_mu_);
  bool workers_stop_ LDB_GUARDED_BY(queue_mu_) = false;

  /// Connections whose outbox changed since the IO thread last looked.
  Mutex dirty_mu_;
  std::vector<std::weak_ptr<Conn>> dirty_ LDB_GUARDED_BY(dirty_mu_);

  /// Raw counters mirrored into the metrics registry.
  mutable Mutex stats_mu_;
  ServerStats stats_ LDB_GUARDED_BY(stats_mu_);

  /// Cached metric instruments (no-ops when metrics are compiled out).
  obs::Gauge* m_conns_open_ = nullptr;
  obs::Counter* m_conns_total_ = nullptr;
  obs::Counter* m_bytes_sent_ = nullptr;
  obs::Counter* m_bytes_recv_ = nullptr;
  obs::Counter* m_protocol_errors_ = nullptr;
  std::map<uint8_t, obs::Counter*> m_frames_;
};

}  // namespace net
}  // namespace ldb

#endif  // LAMBDADB_NET_SERVER_H_
