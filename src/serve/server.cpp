#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/protocol.h"

namespace ngsx::serve {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

Server::Server(const core::ConversionSession& session, exec::Pool& pool,
               ServerOptions options)
    : session_(session) {
  SchedulerOptions sched;
  sched.max_queued = options.max_queued;
  sched.consumers = options.consumers;
  scheduler_ = std::make_unique<Scheduler>(session, pool, std::move(sched));
}

Server::~Server() { scheduler_->shutdown(); }

std::string Server::handle_line(std::string_view line) {
  ProtoRequest proto;
  try {
    proto = parse_request(line);
  } catch (const Error& e) {
    // UsageError (bad verb/option) or FormatError (bad integer): either
    // way the request is malformed, not the server.
    return err_response("bad-request", e.what());
  }

  switch (proto.verb) {
    case ProtoRequest::Verb::kPing:
      return ok_response("pong\n");
    case ProtoRequest::Verb::kStats:
      return ok_response(obs::metrics_json() + "\n");
    case ProtoRequest::Verb::kQuit:
      return {};
    case ProtoRequest::Verb::kShutdown:
      shutdown_requested_.store(true, std::memory_order_release);
      return ok_response("bye\n");
    case ProtoRequest::Verb::kConvert:
      break;
  }

  ServeRequest request;
  try {
    request.region = session_.parse(proto.region);
  } catch (const Error& e) {
    return err_response("bad-request", e.what());
  }
  request.format = proto.format;
  request.mode = proto.mode;
  request.filter = proto.filter;
  request.include_header = proto.include_header;
  if (proto.deadline_ms.has_value()) {
    request.deadline = steady_clock::now() + milliseconds(*proto.deadline_ms);
  }

  const ServeResult result = scheduler_->submit(request);
  if (!result.ok) {
    return err_response(reject_code(result.reject), result.error);
  }
  return ok_response(result.payload);
}

namespace {

void write_all(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // client went away; nothing to recover
    }
    sent += static_cast<size_t>(n);
  }
}

}  // namespace

void Server::serve_unix(const std::string& socket_path) {
  NGSX_CHECK_MSG(socket_path.size() < sizeof(sockaddr_un{}.sun_path),
                 "socket path too long for sockaddr_un");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  NGSX_CHECK_MSG(fd >= 0, "socket() failed");
  ::unlink(socket_path.c_str());

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw IoError("cannot listen on '" + socket_path +
                  "': " + std::strerror(errno));
  }
  listen_fd_.store(fd, std::memory_order_release);

  std::vector<std::thread> connections;
  while (!shutdown_requested()) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listener shut down (stop()) or failed: exit the loop
    }
    connections.emplace_back([this, conn] {
      static obs::Counter& connection_counter =
          obs::counter("serve.connections");
      connection_counter.add(1);
      std::string buffer;
      char chunk[4096];
      bool open = true;
      while (open) {
        const ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) {
            continue;
          }
          break;
        }
        buffer.append(chunk, static_cast<size_t>(n));
        size_t nl;
        while (open && (nl = buffer.find('\n')) != std::string::npos) {
          const std::string line = buffer.substr(0, nl);
          buffer.erase(0, nl + 1);
          const std::string response = handle_line(line);
          if (response.empty()) {
            open = false;  // QUIT: close this connection silently
            break;
          }
          write_all(conn, response);
          if (shutdown_requested()) {
            open = false;  // SHUTDOWN was answered; now stop the listener
            stop();
          }
        }
      }
      ::close(conn);
    });
  }

  ::close(fd);
  listen_fd_.store(-1, std::memory_order_release);
  for (std::thread& t : connections) {
    t.join();
  }
  // Drain in-flight work before the caller tears anything down.
  scheduler_->shutdown();
  ::unlink(socket_path.c_str());
}

void Server::stop() {
  shutdown_requested_.store(true, std::memory_order_release);
  const int fd = listen_fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);  // wakes the blocked accept()
  }
}

}  // namespace ngsx::serve
