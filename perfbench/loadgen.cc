#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Frames HTTP/1.1 responses out of a byte stream (status line plus a
/// Content-Length body, which is all the server under test emits).
struct ResponseReader {
  std::string buffer;

  bool Take(int* status, std::string* body) {
    const size_t head_end = buffer.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      return false;
    }
    std::string head = buffer.substr(0, head_end);
    for (char& c : head) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    size_t length = 0;
    const size_t field = head.find("\r\ncontent-length:");
    if (field != std::string::npos) {
      length = std::strtoul(head.c_str() + field + 17, nullptr, 10);
    }
    if (buffer.size() < head_end + 4 + length) {
      return false;
    }
    const size_t space = head.find(' ');
    *status = space == std::string::npos
                  ? 0
                  : std::atoi(head.c_str() + space + 1);
    body->assign(buffer, head_end + 4, length);
    buffer.erase(0, head_end + 4 + length);
    return true;
  }
};

struct Connection {
  int fd = -1;
  int request = -1;  // In-flight request index, -1 when idle.
  size_t sent = 0;
  Clock::time_point idle_since;
  ResponseReader reader;
};

/// Writes what the socket takes; false on a socket error.
bool WriteSome(Connection* conn, const std::string& wire) {
  while (conn->sent < wire.size()) {
    const ssize_t n = ::send(conn->fd, wire.data() + conn->sent,
                             wire.size() - conn->sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn->sent += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// Drains readable bytes; false on EOF or a socket error.
bool ReadSome(Connection* conn) {
  char chunk[8192];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n > 0) {
      conn->reader.buffer.append(chunk, static_cast<size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
}

int ThreadCount() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

}  // namespace

PhaseResult RunOpenLoop(const GeneratorOptions& options,
                        const std::vector<ScheduledRequest>& requests) {
  const size_t n = requests.size();
  PhaseResult out;
  out.results.resize(n);
  if (n == 0) {
    return out;
  }
  std::vector<Connection> conns(static_cast<size_t>(options.max_connections));
  for (Connection& conn : conns) {
    conn.fd = Connect(options.port);
    if (conn.fd < 0) {
      throw std::runtime_error("load generator cannot connect to port " +
                               std::to_string(options.port));
    }
  }
  out.connections = static_cast<int>(conns.size());

  const Clock::time_point start = Clock::now();
  std::vector<Clock::time_point> due(n);
  for (size_t i = 0; i < n; ++i) {
    due[i] = start + Seconds(requests[i].due_s);
  }
  for (Connection& conn : conns) {
    conn.idle_since = start;
  }
  const Clock::time_point last_due = due[n - 1];
  const Clock::time_point give_up = last_due + Seconds(options.drain_timeout_s);

  size_t next = 0;      // First request not yet sent.
  size_t num_due = 0;   // Requests whose due time has passed.
  size_t in_flight = 0;
  bool last_due_seen = false;
  Clock::time_point last_done = start;

  auto fail = [&](Connection* conn, Clock::time_point now) {
    RequestResult& result = out.results[static_cast<size_t>(conn->request)];
    result.status = 0;
    result.latency_ms = Ms(now - due[static_cast<size_t>(conn->request)]);
    ::close(conn->fd);
    conn->fd = Connect(options.port);
    conn->request = -1;
    conn->reader.buffer.clear();
    conn->idle_since = now;
    --in_flight;
  };

  std::vector<pollfd> fds;
  std::vector<Connection*> polled;
  while (true) {
    Clock::time_point now = Clock::now();
    while (num_due < n && due[num_due] <= now) {
      ++num_due;
    }
    out.backlog_max =
        std::max(out.backlog_max, static_cast<int>(num_due - next));
    if (!last_due_seen && num_due == n) {
      out.backlog_at_last_due = static_cast<int>(num_due - next);
      last_due_seen = true;
    }
    // Every due request goes out on the first idle connection.
    while (next < num_due) {
      Connection* idle = nullptr;
      for (Connection& conn : conns) {
        if (conn.request < 0 && conn.fd >= 0) {
          idle = &conn;
          break;
        }
      }
      if (idle == nullptr) {
        break;
      }
      const Clock::time_point sent_at = Clock::now();
      out.results[next].late_ms =
          Ms(sent_at - std::max(due[next], idle->idle_since));
      idle->request = static_cast<int>(next);
      idle->sent = 0;
      ++in_flight;
      if (!WriteSome(idle, *requests[next].wire)) {
        fail(idle, sent_at);
      }
      ++next;
    }
    if (next == n && in_flight == 0) {
      break;
    }
    now = Clock::now();
    if (now > give_up) {
      for (Connection& conn : conns) {
        if (conn.request >= 0) {
          fail(&conn, now);
        }
      }
      for (; next < n; ++next) {
        out.results[next].status = 0;
        out.results[next].latency_ms = Ms(now - due[next]);
      }
      break;
    }

    fds.clear();
    polled.clear();
    for (Connection& conn : conns) {
      if (conn.request >= 0) {
        short events = POLLIN;
        const std::string& wire =
            *requests[static_cast<size_t>(conn.request)].wire;
        if (conn.sent < wire.size()) {
          events |= POLLOUT;
        }
        fds.push_back({conn.fd, events, 0});
        polled.push_back(&conn);
      }
    }
    // Sleep until the next request falls due (only useful when a
    // connection is free to take it) or a response arrives.
    Clock::duration wait = std::chrono::milliseconds(50);
    if (num_due < n) {
      wait = std::min(wait, due[num_due] - now);
    }
    wait = std::max(wait, Clock::duration::zero());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) {
      continue;
    }
    for (size_t k = 0; k < fds.size(); ++k) {
      Connection* conn = polled[k];
      const short revents = fds[k].revents;
      if (revents == 0 || conn->request < 0) {
        continue;
      }
      const std::string& wire =
          *requests[static_cast<size_t>(conn->request)].wire;
      if ((revents & POLLOUT) != 0 && conn->sent < wire.size() &&
          !WriteSome(conn, wire)) {
        fail(conn, Clock::now());
        continue;
      }
      if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const bool open = ReadSome(conn);
      int status = 0;
      std::string body;
      if (conn->reader.Take(&status, &body)) {
        const Clock::time_point done = Clock::now();
        RequestResult& result =
            out.results[static_cast<size_t>(conn->request)];
        result.status = status;
        result.latency_ms =
            Ms(done - due[static_cast<size_t>(conn->request)]);
        result.body = std::move(body);
        conn->request = -1;
        conn->idle_since = done;
        last_done = done;
        --in_flight;
        if (!open) {
          ::close(conn->fd);
          conn->fd = Connect(options.port);
        }
      } else if (!open) {
        fail(conn, Clock::now());
      }
    }
  }
  for (Connection& conn : conns) {
    if (conn.fd >= 0) {
      ::close(conn.fd);
    }
  }
  out.wall_s = std::chrono::duration<double>(last_done - start).count();
  return out;
}

std::string HttpPost(const std::string& target, const std::string& json) {
  return "POST " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(json.size()) + "\r\n\r\n" + json;
}

std::string HttpGet(int port, const std::string& target) {
  const int fd = Connect(port);
  if (fd < 0) {
    return "";
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  const std::string wire = "GET " + target +
                           " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                           "Connection: close\r\n\r\n";
  ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  ResponseReader reader;
  char chunk[8192];
  int status = 0;
  std::string body;
  while (!reader.Take(&status, &body)) {
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
    if (got <= 0) {
      break;
    }
    reader.buffer.append(chunk, static_cast<size_t>(got));
  }
  ::close(fd);
  return status == 200 ? body : "";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

double JsonNumber(const std::string& json, const std::string& key,
                  const std::string& section) {
  size_t from = 0;
  if (!section.empty()) {
    from = json.find("\"" + section + "\":");
    if (from == std::string::npos) {
      return std::nan("");
    }
  }
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) {
    return std::nan("");
  }
  const char* begin = json.c_str() + at + needle.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  return end == begin ? std::nan("") : value;
}

std::string JsonStringField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  at = json.find('"', at + needle.size());
  const size_t end = at == std::string::npos ? at : json.find('"', at + 1);
  if (end == std::string::npos) {
    return "";
  }
  return json.substr(at + 1, end - at - 1);
}

namespace {

/// Single-threaded keep-alive HTTP stub that answers every request at once,
/// except that it stalls every connection for `stall` when it handles the
/// first request at or after `stall_at` (measured from `start`).
class StallingStub {
 public:
  StallingStub(double stall_at_s, double stall_s)
      : stall_at_(Seconds(stall_at_s)), stall_(Seconds(stall_s)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      throw std::runtime_error("stub server cannot listen");
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Loop(); });
  }

  ~StallingStub() {
    stop_.store(true);
    thread_.join();
    ::close(listen_fd_);
  }

  StallingStub(const StallingStub&) = delete;
  StallingStub& operator=(const StallingStub&) = delete;

  int port() const { return port_; }
  int accepted() const { return accepted_.load(); }
  int max_threads() const { return max_threads_.load(); }
  /// Absolute stall window (valid once the stall happened).
  Clock::time_point stall_begin() const { return stall_begin_; }
  Clock::time_point stall_end() const { return stall_end_; }
  void Arm(Clock::time_point start) {
    start_ = start;
    armed_.store(true);
  }

 private:
  void Loop() {
    struct Peer {
      int fd;
      std::string in;
    };
    std::vector<Peer> peers;
    const std::string body = "{\"score\": 0.5, \"fingerprint\": \"0\"}";
    const std::string response =
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        "Content-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    while (!stop_.load()) {
      std::vector<pollfd> fds{{listen_fd_, POLLIN, 0}};
      for (const Peer& peer : peers) {
        fds.push_back({peer.fd, POLLIN, 0});
      }
      ::poll(fds.data(), fds.size(), 20);
      if ((fds[0].revents & POLLIN) != 0) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd >= 0) {
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          peers.push_back({fd, ""});
          accepted_.fetch_add(1);
        }
      }
      for (size_t k = 1; k < fds.size(); ++k) {
        Peer& peer = peers[k - 1];
        if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        char chunk[8192];
        const ssize_t got = ::recv(peer.fd, chunk, sizeof chunk, MSG_DONTWAIT);
        if (got <= 0) {
          ::close(peer.fd);
          peer.fd = -1;
          continue;
        }
        peer.in.append(chunk, static_cast<size_t>(got));
        while (true) {
          const size_t head_end = peer.in.find("\r\n\r\n");
          if (head_end == std::string::npos) {
            break;
          }
          const size_t field = peer.in.find("Content-Length:");
          const size_t length =
              field < head_end
                  ? std::strtoul(peer.in.c_str() + field + 15, nullptr, 10)
                  : 0;
          if (peer.in.size() < head_end + 4 + length) {
            break;
          }
          peer.in.erase(0, head_end + 4 + length);
          if (armed_.load() && !stalled_ &&
              Clock::now() >= start_ + stall_at_) {
            stalled_ = true;
            stall_begin_ = Clock::now();
            std::this_thread::sleep_for(stall_);
            stall_end_ = Clock::now();
          }
          max_threads_.store(std::max(max_threads_.load(), ThreadCount()));
          ::send(peer.fd, response.data(), response.size(), MSG_NOSIGNAL);
        }
      }
      peers.erase(std::remove_if(peers.begin(), peers.end(),
                                 [](const Peer& p) { return p.fd < 0; }),
                  peers.end());
    }
    for (const Peer& peer : peers) {
      ::close(peer.fd);
    }
  }

  Clock::duration stall_at_;
  Clock::duration stall_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> armed_{false};
  std::atomic<int> accepted_{0};
  std::atomic<int> max_threads_{0};
  Clock::time_point start_;
  bool stalled_ = false;
  Clock::time_point stall_begin_;
  Clock::time_point stall_end_;
  std::thread thread_;
};

}  // namespace

bool SelfTest(int max_connections) {
  constexpr double kRate = 1000.0;
  constexpr double kDuration = 0.8;
  constexpr double kStallAt = 0.3;
  constexpr double kStall = 0.1;
  StallingStub stub(kStallAt, kStall);
  const int threads_before = ThreadCount();
  const std::string wire = HttpPost("/v1/score", "{\"note\": \"stub\"}");
  std::vector<ScheduledRequest> schedule;
  for (int i = 0; i < static_cast<int>(kRate * kDuration); ++i) {
    schedule.push_back({i / kRate, &wire, i});
  }
  GeneratorOptions options;
  options.port = stub.port();
  options.max_connections = max_connections;
  // The stub's clock starts before the generator's by the time it takes to
  // open the connections (well under the 1 ms margins below).
  stub.Arm(Clock::now());
  const PhaseResult phase = RunOpenLoop(options, schedule);

  bool ok = true;
  auto check = [&](bool condition, const std::string& what) {
    std::printf("selftest %-4s %s\n", condition ? "ok" : "FAIL", what.c_str());
    ok = ok && condition;
  };
  int non_200 = 0;
  std::vector<double> late;
  double max_latency = 0.0;
  for (const RequestResult& result : phase.results) {
    non_200 += result.status != 200;
    late.push_back(result.late_ms);
    max_latency = std::max(max_latency, result.latency_ms);
  }
  check(non_200 == 0, "every request answered 200 (" +
                          std::to_string(non_200) + " not)");
  // Requests due inside the stall window cannot finish before it ends, so
  // their latency from due time carries the rest of the stall.
  const double stall_ms = Ms(stub.stall_end() - stub.stall_begin());
  const double stall_begin_ms = kStallAt * 1000.0;
  int behind = 0;
  int carried = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const double due_ms = schedule[i].due_s * 1000.0;
    if (due_ms >= stall_begin_ms + 1.0 &&
        due_ms < stall_begin_ms + stall_ms - 1.0) {
      ++behind;
      const double remaining = stall_begin_ms + stall_ms - due_ms;
      carried += phase.results[i].latency_ms >= remaining - 2.0;
    }
  }
  check(behind > 0 && carried >= behind * 95 / 100,
        "requests due during the " + std::to_string(stall_ms) +
            " ms stall carry it from due time (" + std::to_string(carried) +
            "/" + std::to_string(behind) + ")");
  check(max_latency >= stall_ms - 2.0 && max_latency <= stall_ms + 50.0,
        "max latency " + std::to_string(max_latency) +
            " ms is the stall, not more");
  const int expected_backlog =
      static_cast<int>(kRate * kStall) - max_connections;
  check(phase.backlog_max >= expected_backlog * 8 / 10,
        "backlog reported: max " + std::to_string(phase.backlog_max) +
            " (stall implies about " + std::to_string(expected_backlog) +
            ")");
  const double late_p99 = Quantile(late, 0.99);
  check(late_p99 < 1.0,
        "generator lateness p99 " + std::to_string(late_p99) + " ms < 1 ms");
  check(phase.connections <= max_connections &&
            stub.accepted() <= max_connections,
        "connections opened " + std::to_string(stub.accepted()) +
            " <= " + std::to_string(max_connections));
  check(stub.max_threads() <= threads_before,
        "no generator threads: " + std::to_string(stub.max_threads()) +
            " threads while loaded vs " + std::to_string(threads_before) +
            " before");
  return ok;
}

}  // namespace perfbench
