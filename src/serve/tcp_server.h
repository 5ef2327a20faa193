// Epoll TCP front-end for RecoService: speaks the serving line protocol
// (serve/protocol.h) over loopback/LAN sockets so the micro-batcher can be
// driven by real concurrent network traffic.
//
// Architecture (see docs/SERVING.md for the full picture):
//
//   clients ══socket══►  epoll loop (1 thread)          worker threads (N)
//                          │ accept / read / write        │
//                          │ split-line buffering         │ RecoService::TopK
//                          │ per conn; parse lines        │ (blocks inside the
//                          ├─── job queue ───────────────►│  micro-batcher)
//                          │                              │
//                          ◄── response buffer + eventfd ─┘
//                          │ backpressure-aware flush
//   clients ◄══socket══════┘
//
// The epoll thread owns every socket: it accepts connections, buffers reads
// until a full '\n'-terminated line is available (lines may arrive split
// across any number of packets), parses each line, and hands well-formed
// queries to a small worker pool. Workers block inside RecoService::TopK —
// that is what lets concurrent connections coalesce in the micro-batcher —
// then append the JSON answer to the connection's write buffer and wake the
// epoll thread through an eventfd to flush it. Responses on one connection
// may be answered out of order when the client pipelines; the echoed "id"
// field is the correlation key.
//
// Each query connection is treated as a closed-loop caller until it sends a
// query while another is still outstanding. On every accept, close and
// first pipelined query the server declares min(open query connections,
// num_workers) to RecoService::SetCallers — or num_workers while any open
// connection has pipelined, since a pipelining client may always send
// more — so a closed-loop batch leaves as soon as every connection has a
// query queued instead of waiting out max_wait_us (docs/SERVING.md).
//
// Robustness contract (locked by tests/tcp_server_test.cc and the socket
// sweep in tests/serve_fuzz_test.cc):
//   - malformed lines are answered with {"id":-1,"error":...} and the
//     connection stays usable; an over-long line (no '\n' within
//     max_line_bytes) is answered with one error and discarded up to the
//     next newline;
//   - a peer may disconnect at any byte offset without affecting other
//     connections (in-flight answers to a dead peer are dropped);
//   - at most max_connections clients are served; extra connects receive a
//     clean {"id":-1,"error":"connection limit reached"} and are closed;
//   - writes are backpressure-aware: when a slow reader's buffered output
//     exceeds max_buffered_write_bytes the server stops reading from that
//     connection until the buffer drains, so one slow client cannot balloon
//     server memory;
//   - Shutdown() drains: queries already handed to workers complete and
//     their answers are flushed before connections close, while connects
//     arriving after drain begins get {"id":-1,"error":"shutting down"}.
//
// Admin plane: a second loopback listener (TcpServerConfig::admin_port)
// multiplexed on the same epoll loop answers HTTP/1.0 GETs — /metrics
// (Prometheus text), /healthz (serving vs draining), /statusz (JSON status),
// /tracez (flight-recorder Chrome trace). Admin connections are one-shot
// (Connection: close), exempt from max_connections and from the query-plane
// drain (scraping a draining server is the point), and are force-closed only
// when the epoll thread exits. Rendering happens on the epoll thread; admin
// traffic never touches the worker pool or the micro-batcher, so it cannot
// perturb query answers.
#ifndef MISSL_SERVE_TCP_SERVER_H_
#define MISSL_SERVE_TCP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "serve/service.h"
#include "utils/status.h"

namespace missl::serve {

/// TCP front-end knobs. Defaults suit tests and loopback benches; a real
/// deployment would raise max_connections and num_workers.
struct TcpServerConfig {
  int port = 0;             ///< 0 = ephemeral; TcpServer::port() reports it
  int admin_port = 0;       ///< admin HTTP port: 0 = ephemeral, -1 = disabled
  int max_connections = 256;   ///< concurrent clients before refusals
  int num_workers = 4;         ///< threads blocking in RecoService::TopK
  int64_t max_line_bytes = 1 << 20;  ///< longest accepted request line
  int64_t max_buffered_write_bytes = 4 << 20;  ///< per-conn backpressure cap
  int backlog = 128;           ///< listen(2) backlog
};

/// Serves one RecoService over TCP on 127.0.0.1. Construct via Start();
/// destruction performs a full drain-and-join Shutdown(). The service must
/// outlive the server.
class TcpServer {
 public:
  /// Binds 127.0.0.1:config.port (0 picks an ephemeral port), starts the
  /// epoll thread and the worker pool. Returns nullptr with `*status` set on
  /// bind/listen failure or invalid config; `*status` is OK on success.
  static std::unique_ptr<TcpServer> Start(RecoService* service,
                                          const TcpServerConfig& config,
                                          Status* status);

  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Actual bound port (resolves an ephemeral config.port = 0).
  int port() const { return port_; }
  /// Actual admin HTTP port (-1 when the admin plane is disabled).
  int admin_port() const { return admin_port_; }
  const TcpServerConfig& config() const { return config_; }

  /// Starts draining without blocking: new query connects are refused,
  /// reading stops on existing query connections, queries already accepted
  /// still complete and their answers are flushed before each connection
  /// closes. The admin plane keeps answering (/healthz reports draining).
  void BeginShutdown();

  /// BeginShutdown() + blocks until every query connection has drained and
  /// all threads are joined (remaining admin connections are flushed
  /// best-effort and closed). Idempotent; called by the destructor.
  void Shutdown();

  /// Connections currently open (draining ones included).
  int64_t active_connections() const;
  /// Total connections accepted / refused since Start.
  int64_t connections_accepted() const;
  int64_t connections_refused() const;

 private:
  /// One client socket, shared between the epoll thread (all socket I/O)
  /// and workers (response enqueue only, under `mu`).
  struct Conn {
    int fd = -1;
    bool admin = false;        ///< accepted on the admin listener (HTTP)
    std::string rbuf;          ///< bytes read, not yet forming a full line
    bool discarding = false;   ///< over-long line: drop until next '\n'
    bool rd_eof = false;       ///< peer half-closed; still flush answers
    bool reading = true;       ///< EPOLLIN armed (epoll thread only)
    bool want_write = false;   ///< EPOLLOUT armed (epoll thread only)
    /// Has had two queries outstanding at once (guarded by the server's
    /// mu_): no longer counted as a closed-loop caller (DeclareCallers).
    bool pipelined = false;

    std::mutex mu;
    std::string wbuf;          ///< pending response bytes (guarded by mu)
    size_t woff = 0;           ///< bytes of wbuf already sent
    int in_flight = 0;         ///< queries handed to workers, unanswered
    bool closed = false;       ///< fd closed; workers drop late answers
    bool close_after_flush = false;  ///< one-shot (admin): close when drained
    // serve.stage.write_ns bookkeeping (query conns only): total bytes ever
    // appended to / sent from wbuf, plus (enqueued-watermark, enqueue-time)
    // marks observed when bytes_sent crosses them.
    uint64_t bytes_enqueued = 0;
    uint64_t bytes_sent = 0;
    std::deque<std::pair<uint64_t, int64_t>> write_marks;
  };

  struct Job {
    std::shared_ptr<Conn> conn;
    ParsedQuery parsed;
    int64_t enqueue_ns = 0;  ///< serve.stage.queue_ns start
  };

  TcpServer(RecoService* service, const TcpServerConfig& config);

  void EpollLoop();
  void WorkerLoop();
  void AcceptPending();
  void AcceptAdminPending();
  /// Writes `line` + '\n' to a fresh fd best-effort and closes it.
  void RefuseConnection(int fd, const std::string& reason);
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Splits rbuf into complete lines; parses and dispatches each.
  void ProcessReadBuffer(const std::shared_ptr<Conn>& conn);
  void HandleLine(const std::shared_ptr<Conn>& conn, const std::string& line);
  /// Admin-plane read path: waits for a full HTTP request head, answers it,
  /// and schedules the connection to close once the response is flushed.
  void ProcessAdminBuffer(const std::shared_ptr<Conn>& conn);
  void HandleAdminRequest(const std::shared_ptr<Conn>& conn,
                          const std::string& method, const std::string& target);
  /// Appends a full HTTP/1.0 response to the connection's write buffer and
  /// flushes (epoll thread only).
  void SendHttpResponse(const std::shared_ptr<Conn>& conn, int code,
                        const char* content_type, const std::string& body);
  /// /statusz body: build rev, uptime, configs, catalog dims, counters,
  /// alloc/memory stats, serve.stage.* summaries.
  std::string StatuszJson() const;
  /// Appends one response line and schedules a flush (any thread).
  void EnqueueResponse(const std::shared_ptr<Conn>& conn,
                       const std::string& line);
  /// Queues the connection for a flush on the epoll thread (any thread).
  void ScheduleFlush(const std::shared_ptr<Conn>& conn);
  /// Re-arms the connection's epoll mask from reading/want_write.
  void UpdateEvents(const std::shared_ptr<Conn>& conn);
  /// Sends as much buffered output as the socket accepts; arms EPOLLOUT for
  /// the rest, applies backpressure, closes drained connections during
  /// shutdown. Epoll thread only.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void SetReading(const std::shared_ptr<Conn>& conn, bool enable);
  void WakeEpoll();
  /// Tells the service how many callers can have a query outstanding:
  /// min(open query connections, num_workers), or num_workers once any
  /// open connection has pipelined. Caller must hold mu_.
  void DeclareCallers();
  /// True once draining and no connection remains.
  bool Drained() const;

  RecoService* service_;
  TcpServerConfig config_;
  int port_ = 0;
  int admin_port_ = -1;
  int listen_fd_ = -1;
  int admin_listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: workers → epoll thread
  int64_t start_ns_ = 0;  ///< obs::NowNanos() at Start, for /statusz uptime

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  std::map<int, std::shared_ptr<Conn>> conns_;   ///< fd → connection
  std::vector<std::shared_ptr<Conn>> flush_;     ///< response-ready conns
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  int64_t accepted_ = 0;
  int64_t refused_ = 0;
  int64_t query_conns_ = 0;  ///< open non-admin conns; drain waits on 0
  int64_t pipelined_conns_ = 0;  ///< open query conns with Conn::pipelined

  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;
  bool jobs_stop_ = false;

  std::thread epoll_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace missl::serve

#endif  // MISSL_SERVE_TCP_SERVER_H_
