// ngsx/mpi/launch.cpp
//
// The two multi-process run() drivers.
//
// run_forked: a standalone binary asked for tcp ranks. The calling
// process becomes rank 0 and forks ranks 1..N-1, so one test or bench
// binary can exercise every backend, and rank 0's lambda captures (the
// place results conventionally land) live in the caller's own address
// space. Each child reports failures over a pipe as an ErrorInfo; a
// supervisor thread watches for abnormal deaths and aborts the world with
// an error naming the dead rank (the transport's own EOF-without-FIN
// detection cannot say how the rank ended).
//
// run_launched: this process was exec'd by ngsx_mpirun and *is* one rank.
// The world endpoint is a process-lived singleton shared by every run()
// call; each call is one epoch, and an implicit trailing barrier gives
// run() the same "all ranks finished" meaning it has under threads.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "mpi/launch.h"
#include "mpi/minimpi.h"
#include "mpi/transport.h"
#include "obs/trace.h"

namespace ngsx::mpi::detail {

namespace {

std::string describe_exit(int rank, int status) {
  std::string out = "minimpi: rank " + std::to_string(rank);
  if (WIFSIGNALED(status)) {
    out += " terminated by signal " + std::to_string(WTERMSIG(status));
  } else if (WIFEXITED(status)) {
    out += " exited with status " + std::to_string(WEXITSTATUS(status));
  } else {
    out += " ended abnormally";
  }
  return out;
}

bool abnormal_exit(int status) {
  return WIFSIGNALED(status) ||
         (WIFEXITED(status) && WEXITSTATUS(status) != 0);
}

void write_all(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n <= 0) {
      return;  // best effort: the exit status still marks the failure
    }
    done += static_cast<size_t>(n);
  }
}

std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      return out;
    }
    out.append(buf, static_cast<size_t>(n));
  }
}

struct Child {
  pid_t pid = -1;
  int rank = 0;
  int err_fd = -1;  // read end of the child's error pipe
  bool exited = false;
  int status = 0;
};

/// Child-rank main: builds its endpoint, runs the body, converts any
/// failure into (abort + error pipe + nonzero exit). Never returns.
[[noreturn]] void child_main(const TcpConfig& cfg, int rank, int nranks,
                             const std::function<void(Comm&)>& body,
                             int err_fd) {
  int code = 0;
  try {
    set_ranks_share_address_space(false);
    obs::set_thread_name("mpi.rank");
    std::unique_ptr<Endpoint> ep = make_tcp_endpoint(cfg, rank, nranks);
    Comm comm = make_comm(ep.get());
    try {
      obs::Span span("mpi", "rank");
      body(comm);
    } catch (const AbortError&) {
      code = 2;  // another rank failed first; nothing to report
    } catch (...) {
      ErrorInfo info = classify_current_exception();
      ep->abort(info);
      write_all(err_fd, encode_error(info));
      code = 1;
    }
    ep.reset();  // graceful teardown (tcp FIN) before exit
  } catch (...) {
    // Endpoint setup or teardown failed; the world may not exist yet, so
    // the pipe is the only channel.
    write_all(err_fd, encode_error(classify_current_exception()));
    code = 3;
  }
  ::close(err_fd);
  // _exit, not exit: a forked rank shares the parent's atexit state and
  // must not run its cleanup handlers.
  ::_exit(code);
}

}  // namespace

void run_forked(int nranks, const std::function<void(Comm&)>& body) {
  // The rendezvous listener is bound before any fork so children inherit
  // its address.
  TcpConfig cfg = tcp_config_from_env();
  cfg.rendezvous_host = "127.0.0.1";
  cfg.advertise_host = "127.0.0.1";
  uint16_t port = 0;
  cfg.listen_fd = tcp_bind_listener("127.0.0.1", &port);
  cfg.rendezvous_port = port;

  std::vector<Child> kids;
  kids.reserve(static_cast<size_t>(nranks - 1));
  for (int r = 1; r < nranks; ++r) {
    int pfd[2];
    NGSX_CHECK_MSG(::pipe(pfd) == 0, "pipe() failed");
    pid_t pid = ::fork();
    NGSX_CHECK_MSG(pid >= 0, "fork() failed");
    if (pid == 0) {
      ::close(pfd[0]);
      for (const Child& k : kids) {
        ::close(k.err_fd);  // earlier siblings' pipes are not ours
      }
      TcpConfig child_cfg = cfg;
      child_cfg.listen_fd = -1;  // rank 0's listener belongs to the parent
      child_main(child_cfg, r, nranks, body, pfd[1]);
    }
    ::close(pfd[1]);
    kids.push_back(Child{pid, r, pfd[0]});
  }

  auto close_fds = [&] {
    if (cfg.listen_fd >= 0) {
      ::close(cfg.listen_fd);
      cfg.listen_fd = -1;
    }
    for (Child& k : kids) {
      if (k.err_fd >= 0) {
        ::close(k.err_fd);
        k.err_fd = -1;
      }
    }
  };

  // Parent is rank 0.
  std::unique_ptr<Endpoint> ep;
  try {
    set_ranks_share_address_space(false);
    ep = make_tcp_endpoint(cfg, 0, nranks);
  } catch (...) {
    // The world never formed; children may be blocked in their own
    // bootstrap. Kill and reap them, then report our failure.
    for (Child& k : kids) {
      ::kill(k.pid, SIGKILL);
    }
    for (Child& k : kids) {
      ::waitpid(k.pid, &k.status, 0);
    }
    set_ranks_share_address_space(true);
    close_fds();
    throw;
  }

  // Watch for ranks dying without a clean abort (crash, _exit, signal) and
  // turn them into a world abort that names the rank.
  std::thread supervisor([&] {
    size_t reaped = 0;
    while (reaped < kids.size()) {
      bool progress = false;
      for (Child& k : kids) {
        if (k.exited) {
          continue;
        }
        int status = 0;
        pid_t got = ::waitpid(k.pid, &status, WNOHANG);
        if (got == k.pid) {
          k.exited = true;
          k.status = status;
          ++reaped;
          progress = true;
          if (abnormal_exit(status)) {
            // First-error-wins: if the child aborted cleanly before
            // exiting nonzero, its own ErrorInfo is already recorded and
            // this synthetic one is ignored.
            ep->abort(ErrorInfo{"Error", describe_exit(k.rank, status)});
          }
        }
      }
      if (reaped < kids.size() && !progress) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  });

  std::exception_ptr own_error;
  std::optional<ErrorInfo> own_info;
  {
    Comm comm = make_comm(ep.get());
    try {
      obs::Span span("mpi", "rank");
      body(comm);
    } catch (const AbortError&) {
      // A peer failed; resolution below picks up its error.
    } catch (...) {
      own_error = std::current_exception();
      own_info = classify_current_exception();
      ep->abort(*own_info);
    }
  }

  supervisor.join();

  std::optional<ErrorInfo> winner = ep->abort_error();
  ep.reset();

  std::vector<std::pair<int, ErrorInfo>> pipe_errors;
  for (Child& k : kids) {
    std::string bytes = read_all(k.err_fd);
    if (!bytes.empty()) {
      pipe_errors.emplace_back(k.rank, decode_error(bytes));
    }
  }
  set_ranks_share_address_space(true);
  close_fds();

  // Report the first failure: the world's first-wins record when it holds
  // a real error; otherwise the lowest failing rank's piped error; then
  // rank 0's own exception (verbatim, for exact-type fidelity); then a
  // synthetic error for an unexplained abnormal exit.
  if (winner && winner->kind != "AbortError") {
    if (own_info && own_info->kind == winner->kind &&
        own_info->message == winner->message) {
      std::rethrow_exception(own_error);
    }
    winner->rethrow();
  }
  for (const auto& [rank, info] : pipe_errors) {
    if (info.kind != "AbortError") {
      info.rethrow();
    }
  }
  if (own_error) {
    std::rethrow_exception(own_error);
  }
  for (const Child& k : kids) {
    if (abnormal_exit(k.status)) {
      throw Error(describe_exit(k.rank, k.status));
    }
  }
}

// ---- launched worlds -------------------------------------------------------

namespace {

// The persistent world of an ngsx_mpirun rank. Guarded by g_launched_mu:
// run() calls are serialized (they would deadlock if interleaved anyway,
// since every rank must execute the same run() sequence).
std::mutex g_launched_mu;
std::unique_ptr<Endpoint> g_launched_ep;
uint32_t g_launched_epoch = 0;
bool g_launched_failed = false;

}  // namespace

void run_launched(int nranks, const std::function<void(Comm&)>& body) {
  const int rank = launched_rank();
  const int size = launched_size();
  if (nranks != size) {
    throw UsageError(
        "mpi::run(" + std::to_string(nranks) + ") inside an ngsx_mpirun " +
        "world of " + std::to_string(size) +
        " ranks: pass the launched world size (mpi::launched_size())");
  }
  std::lock_guard<std::mutex> lock(g_launched_mu);
  if (g_launched_failed) {
    throw UsageError("minimpi: this launched world has already aborted");
  }
  if (!g_launched_ep) {
    set_ranks_share_address_space(false);
    g_launched_ep = make_tcp_endpoint(tcp_config_from_env(), rank, size);
  } else {
    g_launched_ep->begin_epoch(++g_launched_epoch);
  }
  Comm comm = make_comm(g_launched_ep.get());
  try {
    obs::Span span("mpi", "rank");
    body(comm);
    // Implicit join: no rank leaves run() until every rank has finished
    // it, matching the threads backend (and making rank 0's "merge the
    // shard files the others wrote" idiom safe).
    comm.barrier();
  } catch (const AbortError&) {
    g_launched_failed = true;
    if (auto info = g_launched_ep->abort_error();
        info && info->kind != "AbortError") {
      info->rethrow();
    }
    throw;
  } catch (...) {
    g_launched_failed = true;
    g_launched_ep->abort(classify_current_exception());
    throw;
  }
}

}  // namespace ngsx::mpi::detail
