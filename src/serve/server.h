// ngsx/serve/server.h
//
// The resident region-query service: one open ConversionSession + one
// Scheduler behind a newline-delimited protocol (serve/protocol.h),
// reachable over a Unix-domain socket or driven in-process (--once mode
// and tests use handle_line directly — same code path, no socket).
//
// Concurrency model: every accepted connection gets a reader thread; a
// CONVERT blocks its connection thread in Scheduler::submit while the
// work multiplexes onto the shared exec::Pool. Admission control lives in
// the scheduler, so a flood of connections degrades into fast typed
// "backpressure" rejects, not unbounded queueing.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/session.h"
#include "exec/pool.h"
#include "serve/scheduler.h"

namespace ngsx::serve {

struct ServerOptions {
  size_t max_queued = 64;  // scheduler admission bound
  int consumers = 0;       // scheduler consumer loops; 0 => pool size
};

class Server {
 public:
  /// The session must outlive the server.
  Server(const core::ConversionSession& session, exec::Pool& pool,
         ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handles one request line (without trailing newline) and returns the
  /// full response bytes. SHUTDOWN flips shutdown_requested() after
  /// composing its response; QUIT returns an empty string (the transport
  /// closes the connection, nothing is sent).
  std::string handle_line(std::string_view line);

  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Listens on `socket_path` (an existing socket file is replaced) and
  /// serves until SHUTDOWN arrives or stop() is called; drains in-flight
  /// work, joins connection threads, and removes the socket file before
  /// returning.
  void serve_unix(const std::string& socket_path);

  /// Unblocks a running serve_unix() from another thread or a signal
  /// handler path.
  void stop();

  Scheduler& scheduler() { return *scheduler_; }

 private:
  const core::ConversionSession& session_;
  std::unique_ptr<Scheduler> scheduler_;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<int> listen_fd_{-1};
};

}  // namespace ngsx::serve
