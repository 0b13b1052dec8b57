#ifndef KDDN_SERVE_HTTP_SERVER_H_
#define KDDN_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/net_util.h"
#include "serve/http_parser.h"
#include "serve/inference_engine.h"

namespace kddn::serve {

class SnapshotRegistry;

struct HttpServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back with
  /// port() after Start()).
  int port = 0;
  /// Concurrent connections beyond this are not accepted until one closes
  /// (they wait in the kernel backlog).
  int max_connections = 256;
  /// Per-request framing budgets, enforced by the parser (431/413).
  size_t max_header_bytes = 16 * 1024;
  size_t max_body_bytes = 1 << 20;
  /// Retry hint attached to 429/503 shed responses (Retry-After header,
  /// rounded up to whole seconds, and the retry_after_ms body field).
  int retry_after_ms = 50;
  /// Keep-alive connections with no request activity for this long are
  /// closed by the reactor (counted in closed_idle), reclaiming their
  /// max_connections slot from clients that connect and go quiet. 0 keeps
  /// idle connections forever (the pre-timeout behavior). A connection with
  /// a score in flight or a response still draining is never reaped.
  int idle_timeout_ms = 0;
  /// Shared-secret bearer token guarding the mutating admin surface
  /// (POST /v1/admin/swap). When non-empty, swap requests must carry
  /// `Authorization: Bearer <token>` (compared in constant time) or they are
  /// refused with 401 before any body parsing. Empty leaves the admin
  /// surface open (the pre-auth behavior; fine for loopback-only rigs).
  /// Read-only endpoints — /healthz in particular — never require auth, so
  /// liveness probes keep working with no credential plumbing.
  std::string auth_token;
};

/// Front-end counters, one step up the stack from serve::Stats: the engine
/// counts scoring work, this counts protocol outcomes.
struct HttpServerStatsSnapshot {
  int64_t accepted = 0;       // Connections accepted.
  int64_t requests = 0;       // Complete requests routed.
  int64_t responses_2xx = 0;
  int64_t responses_4xx = 0;  // Client errors other than 429.
  int64_t responses_429 = 0;  // Queue-full sheds.
  int64_t responses_503 = 0;  // Deadline sheds.
  int64_t responses_5xx = 0;  // Server errors other than 503.
  /// Connections closed without a complete response: socket errors, peers
  /// vanishing mid-request, and injected accept/read/write faults.
  int64_t dropped_connections = 0;
  /// Keep-alive connections reaped by idle_timeout_ms (orderly close, not
  /// counted as dropped — the peer had nothing in flight).
  int64_t closed_idle = 0;

  std::string ToJson() const;
};

/// Dependency-free HTTP/1.1 front-end over an InferenceEngine: one reactor
/// thread runs a poll(2) readiness loop (non-blocking sockets, level
/// -triggered — the epoll shape without the epoll fd, which loopback serving
/// at this fan-in does not need) and never blocks on scoring. A /v1/score
/// request is parsed, encoded, and handed to InferenceEngine::ScoreAsync;
/// the reactor keeps serving other connections, and the finished score
/// wakes it through its self-pipe to complete the response.
///
/// Routes:
///   POST /v1/score       {"note": "<raw clinical note>"}
///                        -> 200 {"score": p, "label": 0|1,
///                                "degraded": bool,
///                                "fingerprint": "<snapshot hex>"}
///   GET  /v1/stats       -> 200 {"engine": {...}, "server": {...},
///                                "registry": {...}, "active_fingerprint",
///                                "snapshot_count", "uptime_ms"}
///   GET  /healthz        -> 200 {"status": "ok", "active_fingerprint",
///                                "snapshot_count", "uptime_ms", ...}
///   POST /v1/admin/swap  {"fingerprint": "<hex>"}
///                        -> 200 published / already-active
///                           404 unknown fingerprint
///                           409 health gate rejected (checksum/golden)
///                           501 server built without a SnapshotRegistry
///
/// The score response's fingerprint is the snapshot that actually scored the
/// note (tagged at batch execution, InferenceEngine::Scored) — during a
/// hot-swap a client can observe either snapshot's score, but never a score
/// labelled with the wrong one.
///
/// Overload mapping (DESIGN.md §11): ShedError(kQueueFull) at enqueue is a
/// 429, ShedError(kDeadlineExceeded) on the future is a 503; both carry a
/// Retry-After header and a machine-readable reason. Malformed traffic gets
/// the parser's 400/413/431/501/505 and the connection closes — framing
/// after a parse error is unrecoverable. A socket-level failure (including
/// an injected http.accept/read/write fault) drops exactly that connection;
/// the engine and every other connection are untouched.
///
/// When a SnapshotRegistry is attached, the reactor also ticks its probation
/// watchdog every loop iteration, so a failure-budget breach rolls back
/// within one poll interval without any dedicated watchdog thread.
///
/// Scores over the wire are bitwise-equal to in-process ScoreNote: the
/// response serialises the float with a round-trippable %.9g
/// (json_util.h FloatToJson), enforced by tests/http_test.cc.
class HttpServer {
 public:
  /// `engine` must outlive the server and should be pipeline-constructed;
  /// without a NotePipeline, /v1/score answers 501.
  explicit HttpServer(InferenceEngine* engine,
                      const HttpServerOptions& options = {});

  /// As above, plus a snapshot registry enabling POST /v1/admin/swap and the
  /// probation watchdog. `registry` may be null (admin route answers 501)
  /// and must outlive the server otherwise.
  HttpServer(InferenceEngine* engine, SnapshotRegistry* registry,
             const HttpServerOptions& options);

  /// Stops and joins if still running.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and listens (throwing KddnError on bind failure), then spawns the
  /// reactor thread. port() is valid once Start() returns.
  void Start();

  /// Stops the reactor and closes every connection. In-flight scores keep
  /// running inside the engine; their responses are abandoned. Idempotent.
  void Stop();

  /// The bound port (resolves an ephemeral request).
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  HttpServerStatsSnapshot stats() const;

 private:
  friend class HttpServerTestPeer;
  using Clock = std::chrono::steady_clock;

  /// The reactor's non-blocking self-pipe, shared with every pending score's
  /// notifier; the last owner closes it, so no notifier writes a reused fd.
  struct WakePipe {
    net::ScopedFd read_end;
    net::ScopedFd write_end;
  };

  /// Per-connection reactor state. A connection handles one scoring request
  /// at a time; pipelined successors wait inside the parser buffer until the
  /// current response is fully written (responses stay in request order).
  struct Connection {
    int fd = -1;
    bool dead = false;
    HttpParser parser;
    HttpParser::Status parser_status = HttpParser::Status::kNeedMore;
    bool parse_error_answered = false;
    std::string outbox;
    size_t outbox_sent = 0;
    bool close_after_write = false;
    std::future<Scored> score_future;  // Valid while a score is in flight.
    bool degraded = false;
    /// Last time bytes arrived or a response was queued; drives the idle
    /// reaper.
    Clock::time_point last_activity;

    explicit Connection(const HttpParserOptions& parser_options)
        : parser(parser_options) {}

    bool HasPendingOutput() const { return outbox_sent < outbox.size(); }
  };

  void LoopThread();
  void AcceptPending();
  /// Closes keep-alive connections idle past options_.idle_timeout_ms as of
  /// `now`, a reading of now_.
  void ReapIdleConnections(Clock::time_point now);
  /// Reads available bytes into the parser; may mark the connection dead.
  void ReadAndParse(Connection* conn);
  /// Drives one connection as far as it can go without blocking: flush,
  /// finish a ready score, route the next complete request, advance through
  /// pipelined requests. Leaves the connection waiting on poll readiness, a
  /// score future, or dead.
  void Pump(Connection* conn);
  /// Routes parser.request(); fills the outbox or parks a score future.
  void HandleRequest(Connection* conn);
  void HandleScore(Connection* conn, const HttpRequest& request);
  void HandleSwap(Connection* conn, const HttpRequest& request);
  /// Shared "active_fingerprint"/"snapshot_count"/"uptime_ms" JSON fields
  /// (without braces) for /v1/stats and /healthz.
  std::string LifecycleFieldsJson() const;
  /// Completes a parked /v1/score once its future is ready.
  void FinishScore(Connection* conn);
  /// Flushes the outbox; marks the connection dead on socket failure.
  void FlushOutbox(Connection* conn);
  /// Queues a response and counts it by status class.
  void QueueResponse(Connection* conn, int status, const std::string& body,
                     const std::vector<std::pair<std::string, std::string>>&
                         extra_headers = {});
  /// Closes the socket; `dropped` marks an abnormal end (counted).
  void CloseConnection(Connection* conn, bool dropped);

  InferenceEngine* engine_;
  SnapshotRegistry* registry_ = nullptr;
  HttpServerOptions options_;
  HttpParserOptions parser_options_;

  int listen_fd_ = -1;
  std::shared_ptr<WakePipe> wake_;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread loop_;
  std::vector<std::unique_ptr<Connection>> connections_;
  Clock::time_point start_time_;
  /// The clock that stamps connection activity and drives the idle reaper.
  /// A test peer may substitute a hand-advanced clock before Start(), so
  /// that a reap decision never depends on how fast a loaded host runs.
  Clock::time_point (*now_)() = [] { return Clock::now(); };

  mutable std::mutex stats_mutex_;
  HttpServerStatsSnapshot stats_;
};

}  // namespace kddn::serve

#endif  // KDDN_SERVE_HTTP_SERVER_H_
