#include "serve/http_server.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/net_util.h"
#include "common/trace.h"
#include "serve/json_util.h"
#include "serve/snapshot_registry.h"
#include "tensor/tensor_ops.h"

namespace kddn::serve {

namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
  }
  return "Unknown";
}

std::string ErrorBody(const std::string& error, const std::string& reason) {
  return "{\"error\": \"" + JsonEscape(error) + "\", \"reason\": \"" +
         JsonEscape(reason) + "\"}";
}

std::string ShedBody(const char* reason, int retry_after_ms) {
  return std::string("{\"error\": \"shed\", \"reason\": \"") + reason +
         "\", \"retry_after_ms\": " + std::to_string(retry_after_ms) + "}";
}

/// Constant-time string equality: the work done is a function of the
/// lengths only, never of where the first mismatching byte sits, so response
/// timing cannot be used to guess the configured token byte by byte.
bool ConstantTimeEquals(const std::string& a, const std::string& b) {
  unsigned char diff =
      static_cast<unsigned char>((a.size() ^ b.size()) != 0 ? 1 : 0);
  const size_t n = std::max(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const unsigned char ca =
        i < a.size() ? static_cast<unsigned char>(a[i]) : 0;
    const unsigned char cb =
        i < b.size() ? static_cast<unsigned char>(b[i]) : 0;
    diff = static_cast<unsigned char>(diff | (ca ^ cb));
  }
  return diff == 0;
}

/// One byte on a non-blocking wake pipe; a full pipe already holds a wake.
void Wake(int write_fd) {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(write_fd, &byte, 1);
}

}  // namespace

std::string HttpServerStatsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"accepted\": " << accepted << ", \"requests\": " << requests
      << ", \"responses_2xx\": " << responses_2xx
      << ", \"responses_4xx\": " << responses_4xx
      << ", \"responses_429\": " << responses_429
      << ", \"responses_503\": " << responses_503
      << ", \"responses_5xx\": " << responses_5xx
      << ", \"dropped_connections\": " << dropped_connections
      << ", \"closed_idle\": " << closed_idle << "}";
  return out.str();
}

HttpServer::HttpServer(InferenceEngine* engine,
                       const HttpServerOptions& options)
    : HttpServer(engine, /*registry=*/nullptr, options) {}

HttpServer::HttpServer(InferenceEngine* engine, SnapshotRegistry* registry,
                       const HttpServerOptions& options)
    : engine_(engine), registry_(registry), options_(options) {
  KDDN_CHECK(engine_ != nullptr);
  KDDN_CHECK_GT(options_.max_connections, 0)
      << "max_connections must be positive";
  KDDN_CHECK_GE(options_.retry_after_ms, 0) << "retry_after_ms must be >= 0";
  KDDN_CHECK_GE(options_.idle_timeout_ms, 0)
      << "idle_timeout_ms must be >= 0 (0 = never reap)";
  parser_options_.max_header_bytes = options_.max_header_bytes;
  parser_options_.max_body_bytes = options_.max_body_bytes;
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Start() {
  KDDN_CHECK(!running_.load()) << "HttpServer::Start on a running server";
  int fds[2];
  KDDN_CHECK_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0) << "HttpServer: pipe2";
  wake_ = std::make_shared<WakePipe>(
      WakePipe{net::ScopedFd(fds[0]), net::ScopedFd(fds[1])});
  listen_fd_ = net::ListenTcp(options_.port);
  net::SetNonBlocking(listen_fd_);
  port_ = net::BoundPort(listen_fd_);
  start_time_ = Clock::now();
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { LoopThread(); });
}

void HttpServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  stop_requested_.store(true, std::memory_order_release);
  Wake(wake_->write_end.get());
  if (loop_.joinable()) {
    loop_.join();
  }
  net::CloseFd(listen_fd_);
  listen_fd_ = -1;
  wake_.reset();  // Pending completions keep the pipe until they fire.
  running_.store(false, std::memory_order_release);
}

HttpServerStatsSnapshot HttpServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void HttpServer::LoopThread() {
  // Stop() and every finished score write the wake pipe, so the timeout
  // only paces the probation watchdog and the idle reaper (a fraction of
  // its timeout).
  const int timeout_ms =
      options_.idle_timeout_ms > 0
          ? std::clamp(options_.idle_timeout_ms / 4, 1, 200)
          : 200;
  std::vector<pollfd> poll_fds;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    poll_fds.clear();
    poll_fds.push_back({wake_->read_end.get(), POLLIN, 0});
    const bool can_accept =
        static_cast<int>(connections_.size()) < options_.max_connections;
    poll_fds.push_back(
        {can_accept ? listen_fd_ : -1, POLLIN, 0});  // fd -1: ignored.
    for (const auto& conn : connections_) {
      short events = POLLIN;  // Always read: EOF detection + pipelined bytes.
      if (conn->HasPendingOutput()) {
        events |= POLLOUT;
      }
      poll_fds.push_back({conn->fd, events, 0});
    }
    ::poll(poll_fds.data(), poll_fds.size(), timeout_ms);

    if ((poll_fds[0].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_->read_end.get(), drain, sizeof(drain)) > 0) {
      }
    }
    // Only the connections that were in this poll set have valid revents;
    // AcceptPending() below may append new ones, which get their first
    // poll next iteration (they have no readable bytes yet anyway).
    const size_t polled = poll_fds.size() - 2;
    if (can_accept && (poll_fds[1].revents & POLLIN) != 0) {
      AcceptPending();
    }
    for (size_t i = 0; i < polled; ++i) {
      Connection* conn = connections_[i].get();
      const short revents = poll_fds[i + 2].revents;
      if (conn->dead) {
        continue;
      }
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        ReadAndParse(conn);
      }
      Pump(conn);
    }
    ReapIdleConnections(now_());
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const std::unique_ptr<Connection>& conn) {
                         return conn->dead;
                       }),
        connections_.end());
    // Probation watchdog rides the reactor loop: a failure-budget breach
    // rolls the engine back within one poll interval, with no extra thread.
    if (registry_ != nullptr) {
      registry_->PollProbation();
    }
  }
  for (auto& conn : connections_) {
    if (!conn->dead) {
      CloseConnection(conn.get(), /*dropped=*/false);
    }
  }
  connections_.clear();
}

void HttpServer::AcceptPending() {
  while (static_cast<int>(connections_.size()) < options_.max_connections) {
    int fd = -1;
    try {
      fd = net::AcceptConnection(listen_fd_);
    } catch (const KddnError&) {
      // An injected http.accept fault (or a listener-level error) drops the
      // one pending connection; the loop and every live connection go on.
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.dropped_connections;
      break;
    }
    if (fd < 0) {
      break;
    }
    net::SetNonBlocking(fd);
    net::SetTcpNoDelay(fd);
    auto conn = std::make_unique<Connection>(parser_options_);
    conn->fd = fd;
    conn->last_activity = now_();
    connections_.push_back(std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.accepted;
  }
}

void HttpServer::ReapIdleConnections(Clock::time_point now) {
  if (options_.idle_timeout_ms <= 0) {
    return;
  }
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  for (auto& conn : connections_) {
    // A connection with work in flight is active no matter how old its last
    // byte is: a parked score future or a draining response will refresh
    // last_activity when it completes.
    if (conn->dead || conn->score_future.valid() || conn->HasPendingOutput()) {
      continue;
    }
    if (now - conn->last_activity >= limit) {
      CloseConnection(conn.get(), /*dropped=*/false);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.closed_idle;
    }
  }
}

void HttpServer::ReadAndParse(Connection* conn) {
  KDDN_TRACE_SPAN("http.read_parse");
  char buffer[4096];
  while (!conn->dead) {
    size_t n = 0;
    const net::IoStatus status =
        net::ReadSome(conn->fd, buffer, sizeof(buffer), &n);
    if (status == net::IoStatus::kWouldBlock) {
      return;
    }
    if (status == net::IoStatus::kError) {
      CloseConnection(conn, /*dropped=*/true);
      return;
    }
    if (status == net::IoStatus::kEof) {
      // Orderly close. Mid-request, mid-response, or mid-score it is
      // abnormal (the peer walked away from work in progress).
      const bool mid_work = conn->score_future.valid() ||
                            conn->HasPendingOutput() ||
                            conn->parser.buffered_bytes() > 0;
      CloseConnection(conn, /*dropped=*/mid_work);
      return;
    }
    conn->last_activity = now_();
    conn->parser_status = conn->parser.Consume(buffer, n);
    if (conn->parser_status == HttpParser::Status::kError) {
      return;  // Pump answers the 4xx/5xx and closes.
    }
  }
}

void HttpServer::Pump(Connection* conn) {
  while (!conn->dead) {
    if (conn->HasPendingOutput()) {
      FlushOutbox(conn);
      if (conn->dead || conn->HasPendingOutput()) {
        return;  // Dead, or waiting for POLLOUT.
      }
      // Response fully written: either this connection is done, or the next
      // pipelined request (if fully buffered) becomes current.
      if (conn->close_after_write) {
        CloseConnection(conn, /*dropped=*/false);
        return;
      }
      conn->outbox.clear();
      conn->outbox_sent = 0;
      conn->parser_status = conn->parser.Advance();
      continue;
    }
    if (conn->score_future.valid()) {
      if (conn->score_future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        return;
      }
      FinishScore(conn);
      continue;
    }
    if (conn->parser_status == HttpParser::Status::kComplete) {
      HandleRequest(conn);
      continue;
    }
    if (conn->parser_status == HttpParser::Status::kError) {
      if (conn->parse_error_answered) {
        return;  // Response already queued (still draining) — nothing more.
      }
      conn->parse_error_answered = true;
      conn->close_after_write = true;  // Framing is unrecoverable.
      QueueResponse(conn, conn->parser.error_status(),
                    ErrorBody("bad-request", conn->parser.error_reason()));
      continue;
    }
    return;  // kNeedMore: wait for bytes.
  }
}

std::string HttpServer::LifecycleFieldsJson() const {
  const double uptime_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start_time_)
          .count();
  std::ostringstream out;
  out << "\"active_fingerprint\": \""
      << FingerprintToHex(engine_->active_fingerprint())
      << "\", \"snapshot_count\": "
      << (registry_ != nullptr ? registry_->snapshot().snapshot_count : 1)
      << ", \"uptime_ms\": " << DoubleToJson(uptime_ms)
      // What dense kernel this host actually scores with (DESIGN.md §9):
      // the dispatch mode plus the runtime-detected ISA kAuto resolved to.
      << ", \"gemm_kernel\": \"" << GemmKernelName(GetGemmKernel())
      << "\", \"simd_isa\": \"" << ActiveGemmIsa() << "\"";
  return out.str();
}

void HttpServer::HandleRequest(Connection* conn) {
  KDDN_TRACE_SPAN("http.handle");
  const HttpRequest& request = conn->parser.request();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
  }
  if (!request.KeepAlive()) {
    conn->close_after_write = true;
  }
  if (request.target == "/v1/score") {
    if (request.method != "POST") {
      QueueResponse(conn, 405, ErrorBody("method-not-allowed", "use POST"),
                    {{"Allow", "POST"}});
      return;
    }
    HandleScore(conn, request);
    return;
  }
  if (request.target == "/v1/admin/swap") {
    if (request.method != "POST") {
      QueueResponse(conn, 405, ErrorBody("method-not-allowed", "use POST"),
                    {{"Allow", "POST"}});
      return;
    }
    HandleSwap(conn, request);
    return;
  }
  if (request.target == "/v1/stats") {
    if (request.method != "GET") {
      QueueResponse(conn, 405, ErrorBody("method-not-allowed", "use GET"),
                    {{"Allow", "GET"}});
      return;
    }
    std::string body = "{" + LifecycleFieldsJson() +
                       ", \"engine\": " + engine_->stats().ToJson() +
                       ", \"server\": " + stats().ToJson();
    if (registry_ != nullptr) {
      body += ", \"registry\": " + registry_->snapshot().ToJson();
    }
    body += "}";
    QueueResponse(conn, 200, body);
    return;
  }
  if (request.target == "/healthz") {
    if (request.method != "GET") {
      QueueResponse(conn, 405, ErrorBody("method-not-allowed", "use GET"),
                    {{"Allow", "GET"}});
      return;
    }
    QueueResponse(conn, 200,
                  std::string("{\"status\": \"ok\", \"model\": \"") +
                      engine_->active()->name() + "\", " +
                      LifecycleFieldsJson() + "}");
    return;
  }
  QueueResponse(conn, 404, ErrorBody("not-found", request.target));
}

void HttpServer::HandleScore(Connection* conn, const HttpRequest& request) {
  if (!engine_->has_pipeline()) {
    QueueResponse(conn, 501,
                  ErrorBody("no-pipeline",
                            "engine lacks a NotePipeline; raw-note scoring "
                            "is unavailable"));
    return;
  }
  std::map<std::string, JsonValue> fields;
  std::string parse_error;
  if (!ParseFlatJsonObject(request.body, &fields, &parse_error)) {
    QueueResponse(conn, 400, ErrorBody("bad-json", parse_error));
    return;
  }
  const auto note = fields.find("note");
  if (note == fields.end() ||
      note->second.kind != JsonValue::Kind::kString) {
    QueueResponse(conn, 400,
                  ErrorBody("bad-request",
                            "body must carry a string field \"note\""));
    return;
  }
  try {
    data::Example example =
        engine_->EncodeNote(note->second.string_value, &conn->degraded);
    conn->score_future = engine_->ScoreAsync(
        std::move(example), [wake = wake_] { Wake(wake->write_end.get()); });
  } catch (const ShedError& error) {
    // Queue-full at the door: tell the client to back off briefly.
    QueueResponse(conn, 429, ShedBody("queue-full", options_.retry_after_ms),
                  {{"Retry-After",
                    std::to_string((options_.retry_after_ms + 999) / 1000)}});
  } catch (const std::exception& error) {
    QueueResponse(conn, 500, ErrorBody("internal", error.what()));
  }
}

void HttpServer::HandleSwap(Connection* conn, const HttpRequest& request) {
  if (!options_.auth_token.empty()) {
    // Auth gates everything else about the request — an unauthenticated
    // caller learns nothing about the registry, the body grammar, or which
    // fingerprints exist. The two failure reasons are machine-readable so
    // operators can tell a missing credential from a wrong one in logs.
    static const std::string kScheme = "Bearer ";
    const std::string* header = request.FindHeader("Authorization");
    if (header == nullptr ||
        header->compare(0, kScheme.size(), kScheme) != 0) {
      QueueResponse(conn, 401,
                    ErrorBody("unauthorized",
                              "missing or malformed Authorization header; "
                              "expected \"Bearer <token>\""),
                    {{"WWW-Authenticate", "Bearer"}});
      return;
    }
    if (!ConstantTimeEquals(header->substr(kScheme.size()),
                            options_.auth_token)) {
      QueueResponse(conn, 401,
                    ErrorBody("unauthorized", "invalid bearer token"),
                    {{"WWW-Authenticate", "Bearer"}});
      return;
    }
  }
  if (registry_ == nullptr) {
    QueueResponse(conn, 501,
                  ErrorBody("no-registry",
                            "server was built without a snapshot registry; "
                            "hot-swap is unavailable"));
    return;
  }
  std::map<std::string, JsonValue> fields;
  std::string parse_error;
  if (!ParseFlatJsonObject(request.body, &fields, &parse_error)) {
    QueueResponse(conn, 400, ErrorBody("bad-json", parse_error));
    return;
  }
  const auto field = fields.find("fingerprint");
  if (field == fields.end() ||
      field->second.kind != JsonValue::Kind::kString) {
    QueueResponse(
        conn, 400,
        ErrorBody("bad-request",
                  "body must carry a string field \"fingerprint\""));
    return;
  }
  unsigned long long fingerprint = 0;
  if (!ParseHexFingerprint(field->second.string_value, &fingerprint)) {
    QueueResponse(conn, 400,
                  ErrorBody("bad-request",
                            "fingerprint must be 1-16 hex digits"));
    return;
  }
  const SwapOutcome outcome = registry_->Swap(fingerprint);
  int status = 200;
  switch (outcome.code) {
    case SwapCode::kPublished:
    case SwapCode::kAlreadyActive:
      status = 200;
      break;
    case SwapCode::kUnknownFingerprint:
      status = 404;
      break;
    case SwapCode::kChecksumMismatch:
    case SwapCode::kGoldenMismatch:
      status = 409;  // The health gate refused; the incumbent still serves.
      break;
  }
  QueueResponse(conn, status,
                std::string("{\"result\": \"") + SwapCodeName(outcome.code) +
                    "\", \"message\": \"" + JsonEscape(outcome.message) +
                    "\", \"active_fingerprint\": \"" +
                    FingerprintToHex(outcome.active_fingerprint) +
                    "\", \"swap_ms\": " + DoubleToJson(outcome.swap_ms) +
                    "}");
}

void HttpServer::FinishScore(Connection* conn) {
  KDDN_TRACE_SPAN("http.finish_score");
  // Shared, so this thread holds a failed score's exception until its catch
  // block below is done reading it, whenever the batcher drops its side.
  const std::shared_future<Scored> result = conn->score_future.share();
  try {
    // The fingerprint is the one tagged at batch execution — the snapshot
    // that actually produced this score, not whatever is active now.
    const Scored scored = result.get();
    QueueResponse(conn, 200,
                  "{\"score\": " + FloatToJson(scored.score) +
                      ", \"label\": " + (scored.score >= 0.5f ? "1" : "0") +
                      ", \"degraded\": " +
                      (conn->degraded ? "true" : "false") +
                      ", \"fingerprint\": \"" +
                      FingerprintToHex(scored.fingerprint) + "\"}");
  } catch (const ShedError& error) {
    const bool deadline = error.reason() == ShedReason::kDeadlineExceeded;
    QueueResponse(
        conn, deadline ? 503 : 429,
        ShedBody(ShedReasonName(error.reason()), options_.retry_after_ms),
        {{"Retry-After",
          std::to_string((options_.retry_after_ms + 999) / 1000)}});
  } catch (const std::exception& error) {
    QueueResponse(conn, 500, ErrorBody("internal", error.what()));
  }
  conn->degraded = false;
}

void HttpServer::FlushOutbox(Connection* conn) {
  KDDN_TRACE_SPAN("http.flush");
  while (conn->HasPendingOutput()) {
    size_t n = 0;
    const net::IoStatus status =
        net::WriteSome(conn->fd, conn->outbox.data() + conn->outbox_sent,
                       conn->outbox.size() - conn->outbox_sent, &n);
    if (status == net::IoStatus::kWouldBlock) {
      return;
    }
    if (status != net::IoStatus::kOk) {
      // Socket failure (or injected http.write fault) mid-response: this
      // connection is unrecoverable, everything else is unaffected.
      CloseConnection(conn, /*dropped=*/true);
      return;
    }
    conn->outbox_sent += n;
  }
}

void HttpServer::QueueResponse(
    Connection* conn, int status, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  std::ostringstream out;
  out << "HTTP/1.1 " << status << ' ' << StatusText(status) << "\r\n"
      << "Content-Type: application/json\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: " << (conn->close_after_write ? "close" : "keep-alive")
      << "\r\n";
  for (const auto& [name, value] : extra_headers) {
    out << name << ": " << value << "\r\n";
  }
  out << "\r\n" << body;
  conn->outbox = out.str();
  conn->outbox_sent = 0;
  conn->last_activity = now_();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (status < 300) {
    ++stats_.responses_2xx;
  } else if (status == 429) {
    ++stats_.responses_429;
  } else if (status == 503) {
    ++stats_.responses_503;
  } else if (status < 500) {
    ++stats_.responses_4xx;
  } else {
    ++stats_.responses_5xx;
  }
}

void HttpServer::CloseConnection(Connection* conn, bool dropped) {
  if (conn->dead) {
    return;
  }
  net::CloseFd(conn->fd);
  conn->fd = -1;
  conn->dead = true;
  if (dropped) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.dropped_connections;
  }
}

}  // namespace kddn::serve
