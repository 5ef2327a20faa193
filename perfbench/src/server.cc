#include "server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <thread>

#include "util.h"

namespace perfbench {

namespace {

// Parses "port=P\nadmin_port=Q\n"; false until both lines are complete.
bool ReadPortFile(const std::string& path, int* port, int* admin_port) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  size_t p = text.find("port=");
  size_t a = text.find("admin_port=");
  if (p != 0 || a == std::string::npos || text.back() != '\n') return false;
  *port = std::atoi(text.c_str() + 5);
  *admin_port = std::atoi(text.c_str() + a + 11);
  return *port > 0;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool ServerChild::Start(const std::string& binary,
                        const std::vector<std::string>& args,
                        const std::string& port_file,
                        const std::string& log_path, double timeout_s,
                        std::string* error) {
  std::remove(port_file.c_str());
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  argv_s.insert(argv_s.end(), {"--listen", "0", "--port-file", port_file});
  std::vector<char*> argv;
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      dup2(log, STDOUT_FILENO);
      dup2(log, STDERR_FILENO);
      ::close(log);
    }
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  const int64_t t0 = NowNs();
  while (!ReadPortFile(port_file, &port_, &admin_port_)) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "server exited during start-up (see " + log_path + ")";
      return false;
    }
    if (SecondsSince(t0) > timeout_s) {
      Stop();
      *error = "server did not write " + port_file + " in time";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

bool ServerChild::Stop() {
  if (pid_ < 0) return false;
  kill(pid_, SIGTERM);
  int status = 0;
  const int64_t t0 = NowNs();
  for (;;) {
    pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) break;
    if (SecondsSince(t0) > 10.0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      status = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return status == 0;
}

ServerChild::~ServerChild() { Stop(); }

int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool RoundTrip(int fd, const std::string& line, std::string* answer,
               int64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (!SendAll(fd, line + "\n")) return false;
  answer->clear();
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    answer->append(buf, static_cast<size_t>(n));
    size_t nl = answer->find('\n');
    if (nl != std::string::npos) {
      answer->resize(nl);
      return true;
    }
  }
}

bool RunClosedLoop(int port, int conns, int64_t stop_ns,
                   const std::function<std::string(int, int64_t*)>& next_line,
                   int64_t stall_ms, std::vector<Answer>* answers,
                   std::string* error) {
  struct Conn {
    int fd = -1;
    Answer pending;
    std::string buf;
  };
  std::vector<Conn> cs(static_cast<size_t>(conns));
  int ep = epoll_create1(EPOLL_CLOEXEC);
  auto cleanup = [&] {
    for (auto& c : cs) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (ep >= 0) ::close(ep);
  };
  if (ep < 0) {
    *error = "epoll_create1 failed";
    return false;
  }
  for (int i = 0; i < conns; ++i) {
    cs[static_cast<size_t>(i)].fd = ConnectLoopback(port);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(i);
    if (cs[static_cast<size_t>(i)].fd < 0 ||
        epoll_ctl(ep, EPOLL_CTL_ADD, cs[static_cast<size_t>(i)].fd, &ev) != 0) {
      cleanup();
      *error = "cannot connect to 127.0.0.1:" + std::to_string(port);
      return false;
    }
  }
  int in_flight = 0;
  auto send_next = [&](int i) -> bool {
    Conn& c = cs[static_cast<size_t>(i)];
    c.pending = Answer();
    c.pending.line = next_line(i, &c.pending.id);
    c.pending.send_ns = NowNs();
    if (!SendAll(c.fd, c.pending.line + "\n")) return false;
    ++in_flight;
    return true;
  };
  bool ok = true;
  for (int i = 0; i < conns && ok; ++i) ok = send_next(i);
  epoll_event evs[16];
  char buf[16384];
  while (ok && in_flight > 0) {
    int n = epoll_wait(ep, evs, 16, static_cast<int>(stall_ms));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = "server stalled or epoll failed";
      ok = false;
      break;
    }
    for (int e = 0; e < n && ok; ++e) {
      int i = static_cast<int>(evs[e].data.u32);
      Conn& c = cs[static_cast<size_t>(i)];
      ssize_t r = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (r < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      if (r <= 0) {
        *error = "server closed a connection";
        ok = false;
        break;
      }
      const int64_t now = NowNs();
      c.buf.append(buf, static_cast<size_t>(r));
      size_t nl;
      while (ok && (nl = c.buf.find('\n')) != std::string::npos) {
        c.pending.response = c.buf.substr(0, nl);
        c.buf.erase(0, nl + 1);
        c.pending.done_ns = now;
        answers->push_back(std::move(c.pending));
        --in_flight;
        if (now < stop_ns) ok = send_next(i);
      }
    }
  }
  if (!ok && error->empty()) *error = "send failed";
  cleanup();
  return ok;
}

}  // namespace perfbench
