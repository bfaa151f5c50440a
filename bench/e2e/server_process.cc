#include "bench/e2e/server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "bench/e2e/bench_util.h"
#include "src/runtime/error.h"

namespace ldb::e2e {

namespace {

// Reads whatever the child wrote within `timeout_ms`; false on EOF/timeout.
bool ReadSome(int fd, std::string* buf, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  int r = ::poll(&p, 1, timeout_ms);
  if (r <= 0) return false;
  char chunk[4096];
  ssize_t n = ::read(fd, chunk, sizeof(chunk));
  if (n <= 0) return false;
  buf->append(chunk, static_cast<size_t>(n));
  return true;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& bin,
                             const std::vector<std::string>& args,
                             double timeout_s) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0)
    throw Error(std::string("pipe: ") + std::strerror(errno));

  std::vector<std::string> argv_s = {bin};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  argv_s.insert(argv_s.end(), {"--port", "0"});
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  Clock::time_point t0 = Clock::now();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw Error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];

  std::string out;
  const std::string marker = "listening on ";
  while (true) {
    size_t at = out.find(marker);
    size_t eol = at == std::string::npos ? at : out.find('\n', at);
    if (eol != std::string::npos) {
      startup_s_ = SecondsBetween(t0, Clock::now());
      std::string addr = out.substr(at + marker.size(),
                                    eol - at - marker.size());
      port_ = static_cast<uint16_t>(
          std::atoi(addr.substr(addr.rfind(':') + 1).c_str()));
      break;
    }
    double left_ms = 1000 * (timeout_s - SecondsBetween(t0, Clock::now()));
    if (left_ms <= 0 || !ReadSome(out_fd_, &out, static_cast<int>(left_ms))) {
      Stop();
      throw Error("ldb_server (" + bin + ") did not start listening: " + out);
    }
  }
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) * 1024.0 / 1e6;  // kB -> MB
  }
  return 0;
}

int ServerProcess::Stop() {
  if (pid_ <= 0) return status_;
  ::kill(pid_, SIGTERM);
  // Keep draining the child's stdout so its shutdown summary never blocks
  // on a full pipe until it has exited; SIGKILL it if the drain stalls.
  std::string sink;
  Clock::time_point t0 = Clock::now();
  while (::waitpid(pid_, &status_, WNOHANG) == 0) {
    if (!ReadSome(out_fd_, &sink, 20)) ::usleep(2000);  // EOF: just wait
    sink.clear();
    if (SecondsBetween(t0, Clock::now()) > 20) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
      }
      break;
    }
  }
  ::close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  return status_;
}

}  // namespace ldb::e2e
