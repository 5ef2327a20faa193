// The shipped missl_serve binary as a child process, and the benchmark's own
// closed-loop load client that drives it over loopback TCP.
#ifndef MISSL_PERFBENCH_SERVER_H_
#define MISSL_PERFBENCH_SERVER_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// A running `missl_serve --listen 0 --port-file F ...` child. The
/// destructor stops it (SIGTERM, then SIGKILL after a grace period) and
/// reaps it, so no server outlives the benchmark; the child also gets
/// SIGKILL if the benchmark process dies first.
class ServerChild {
 public:
  /// Spawns `binary` with `args` plus --listen/--port-file, stdout and
  /// stderr appended to `log_path`, and waits until the port file names
  /// both ports. Returns false (child stopped, *error set) on failure or
  /// after `timeout_s`.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& port_file, const std::string& log_path,
             double timeout_s, std::string* error);
  ~ServerChild();
  ServerChild() = default;
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  /// Graceful stop; returns true when the child exited with status 0.
  bool Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  int admin_port() const { return admin_port_; }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
  int admin_port_ = -1;
};

/// Connects a blocking TCP socket to 127.0.0.1:port; -1 on failure.
int ConnectLoopback(int port);

/// Sends one line on `fd` and blocks for one answer line; false on error or
/// after `timeout_ms`.
bool RoundTrip(int fd, const std::string& line, std::string* answer,
               int64_t timeout_ms);

/// One answered request of a closed-loop run.
struct Answer {
  int64_t id = 0;
  std::string line;        ///< the query line sent, without '\n'
  std::string response;    ///< the answer line, without '\n'
  int64_t send_ns = 0;
  int64_t done_ns = 0;
};

/// Closed loop over `conns` connections from one thread: each connection
/// has exactly one request outstanding; the next is sent when its answer
/// line has arrived. The loop blocks in epoll_wait (no polling). Sending
/// stops at `stop_ns`; requests in flight then are still awaited.
/// `next_line(c, &id)` yields connection c's next query line. Returns false
/// (*error set) on a socket error or a stall longer than `stall_ms`.
bool RunClosedLoop(int port, int conns, int64_t stop_ns,
                   const std::function<std::string(int, int64_t*)>& next_line,
                   int64_t stall_ms, std::vector<Answer>* answers,
                   std::string* error);

}  // namespace perfbench

#endif  // MISSL_PERFBENCH_SERVER_H_
