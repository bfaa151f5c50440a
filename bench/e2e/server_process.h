// Runs the real ldb_server as a child process: spawn, wait for its
// "listening on <host>:<port>" line, read its peak RSS, stop it with
// SIGTERM (the graceful drain) and reap it. The child is also tied to this
// process with PR_SET_PDEATHSIG, so a crashed benchmark leaves no server
// behind.

#ifndef LAMBDADB_BENCH_E2E_SERVER_PROCESS_H_
#define LAMBDADB_BENCH_E2E_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace ldb::e2e {

class ServerProcess {
 public:
  /// Starts `bin` with `args` (plus `--port 0`) and blocks until it is
  /// listening. Throws ldb::Error if it exits or stays silent for
  /// `timeout_s`.
  ServerProcess(const std::string& bin, const std::vector<std::string>& args,
                double timeout_s = 60);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  /// Seconds from fork to the "listening" line: dump load, index rebuild,
  /// service and listener start.
  double startup_s() const { return startup_s_; }
  /// Peak resident set (VmHWM) so far, in megabytes.
  double PeakRssMb() const;
  /// SIGTERM, drain the child's output, reap it. Returns its exit status
  /// (as from waitpid). Idempotent; the destructor calls it.
  int Stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;  ///< read end of the child's stdout
  uint16_t port_ = 0;
  double startup_s_ = 0;
  int status_ = 0;
};

}  // namespace ldb::e2e

#endif  // LAMBDADB_BENCH_E2E_SERVER_PROCESS_H_
