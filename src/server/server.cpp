#include "server/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"
#include "server/protocol.hpp"

namespace htp::serve {

namespace {

obs::Counter c_requests("serve.requests");
obs::Counter c_errors("serve.errors");
obs::Histogram h_queue_wait("serve.queue_wait", obs::HistogramKind::kTimeNs);
obs::Event e_request("serve.request");

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One client connection: the fd plus the write lock the pool tasks share
// (responses go out in completion order, one full line at a time) and the
// outstanding-request count the reader drains before closing.
struct Connection {
  int fd = -1;
  std::mutex write_mu;
  std::mutex state_mu;
  std::condition_variable drained;
  std::size_t outstanding = 0;

  void WriteLine(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    std::string out = line;
    out.push_back('\n');
    std::size_t sent = 0;
    while (sent < out.size()) {
      // MSG_NOSIGNAL: a client that hung up must cost us an EPIPE errno,
      // not a process-killing SIGPIPE.
      const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;  // client gone; nothing useful to do
      sent += static_cast<std::size_t>(n);
    }
  }

  void TaskDone() {
    std::lock_guard<std::mutex> lock(state_mu);
    --outstanding;
    drained.notify_all();
  }

  void DrainOutstanding() {
    std::unique_lock<std::mutex> lock(state_mu);
    drained.wait(lock, [&] { return outstanding == 0; });
  }
};

class Daemon {
 public:
  explicit Daemon(const ServeOptions& options)
      : options_(options),
        cache_(options.cache),
        pool_(ResolveThreadCount(options.threads)) {}

  ServeStats Run() {
    const int listen_fd = Listen();
    std::vector<std::thread> readers;
    while (!ShouldStop()) {
      pollfd pfd{listen_fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
      if (ready <= 0) continue;  // timeout / EINTR: re-check the flag
      const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
      if (conn_fd < 0) continue;
      auto conn = std::make_shared<Connection>();
      conn->fd = conn_fd;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.push_back(conn);
      }
      readers.emplace_back([this, conn] { ReadLoop(conn); });
    }
    // Wake any reader blocked on a silent client, then join them all —
    // their outstanding pool tasks drain inside ReadLoop.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RD);
    }
    for (std::thread& reader : readers) reader.join();
    ::close(listen_fd);
    ::unlink(options_.socket_path.c_str());
    ServeStats stats;
    stats.requests = served_.load();
    stats.errors = errors_.load();
    return stats;
  }

 private:
  int Listen() {
    if (options_.socket_path.empty())
      throw Error("serve: socket path must not be empty");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path))
      throw Error("serve: socket path too long: " + options_.socket_path);
    std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw Error("serve: cannot create socket");
    ::unlink(options_.socket_path.c_str());  // stale file from a past run
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd);
      throw Error("serve: cannot bind " + options_.socket_path + ": " +
                  std::strerror(errno));
    }
    if (::listen(fd, 16) < 0) {
      ::close(fd);
      throw Error("serve: cannot listen on " + options_.socket_path);
    }
    return fd;
  }

  bool ShouldStop() const {
    if (shutdown_.load(std::memory_order_acquire)) return true;
    return options_.max_requests > 0 &&
           dispatched_.load(std::memory_order_acquire) >=
               options_.max_requests;
  }

  void ReadLoop(const std::shared_ptr<Connection>& conn) {
    LineFramer framer;
    char chunk[4096];
    bool stop = false;
    while (!stop) {
      const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      framer.Append({chunk, static_cast<std::size_t>(n)});
      std::optional<LineFramer::Line> line;
      while (!stop && (line = framer.Next())) {
        if (line->too_long)
          ReplyError(conn, "request: line exceeds " +
                               std::to_string(kMaxRequestLineBytes) +
                               " bytes");
        else
          stop = HandleLine(conn, line->text);
      }
    }
    conn->DrainOutstanding();
    ::close(conn->fd);
  }

  void ReplyError(const std::shared_ptr<Connection>& conn,
                  const std::string& message) {
    errors_.fetch_add(1);
    c_errors.Add();
    conn->WriteLine(RenderServeError("null", message));
  }

  /// Returns true when this connection should stop reading (shutdown, or
  /// the max-requests bound was reached).
  bool HandleLine(const std::shared_ptr<Connection>& conn,
                  const std::string& line) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) return false;
    ServeRequest request;
    try {
      request = ParseServeRequest(ParseJson(line));
    } catch (const std::exception& e) {
      ReplyError(conn, e.what());
      return false;
    }
    if (request.op == "ping") {
      conn->WriteLine(RenderServeAck(request.id_json, "ping"));
      return false;
    }
    if (request.op == "shutdown") {
      conn->WriteLine(RenderServeAck(request.id_json, "shutdown"));
      shutdown_.store(true, std::memory_order_release);
      return true;
    }
    Dispatch(conn, std::move(request));
    return options_.max_requests > 0 &&
           dispatched_.load(std::memory_order_acquire) >=
               options_.max_requests;
  }

  void Dispatch(const std::shared_ptr<Connection>& conn,
                ServeRequest request) {
    dispatched_.fetch_add(1, std::memory_order_acq_rel);
    c_requests.Add();
    {
      std::lock_guard<std::mutex> lock(conn->state_mu);
      ++conn->outstanding;
    }
    const std::uint64_t enqueue_ns = NowNs();
    auto shared_request = std::make_shared<ServeRequest>(std::move(request));
    pool_.Submit([this, conn, shared_request, enqueue_ns] {
      const std::uint64_t wait_ns = NowNs() - enqueue_ns;
      h_queue_wait.Record(wait_ns);
      std::string response;
      try {
        const SessionResult result =
            RunSession(shared_request->session, &cache_);
        response = RenderServeResponse(*shared_request, result,
                                       static_cast<double>(wait_ns) / 1e6);
        served_.fetch_add(1);
        e_request.Record(
            {{"cost", result.refined ? result.fm.final_cost : result.cost},
             {"completed", result.completed ? 1.0 : 0.0},
             {"metric_hits",
              static_cast<double>(result.cache.metric_hits)},
             {"metric_misses",
              static_cast<double>(result.cache.metric_misses)}});
      } catch (const std::exception& e) {
        errors_.fetch_add(1);
        c_errors.Add();
        response = RenderServeError(shared_request->id_json, e.what());
      }
      conn->WriteLine(response);
      conn->TaskDone();
    });
  }

  const ServeOptions options_;
  ArtifactCache cache_;
  ThreadPool pool_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::size_t> dispatched_{0};
  std::atomic<std::size_t> served_{0};
  std::atomic<std::size_t> errors_{0};
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
};

}  // namespace

ServeStats RunServer(const ServeOptions& options) {
  return Daemon(options).Run();
}

}  // namespace htp::serve
