// ngsx_mpirun: launch N real processes as one minimpi world.
//
//   ngsx_mpirun -n 4 -- ./ngsx_convert in.sam out.bamx
//
// Each rank is a fork+exec of the given command with NGSX_MPI_RANK /
// NGSX_MPI_SIZE set and NGSX_MPI_TRANSPORT=tcp; inside the program,
// mpi::run() sees the launched world and joins it instead of spawning
// threads (mpi::launched(), docs/DISTRIBUTED.md "Launched worlds").
//
// Before the first fork the launcher binds the rendezvous listener and
// hands it to rank 0 via NGSX_MPI_TCP_LISTEN_FD; every rank gets its
// address in NGSX_MPI_TCP_RENDEZVOUS. Crash detection is the transport's
// own EOF-without-FIN rule, so no launcher-side abort hook is needed.
//
// Exit status: 0 when every rank exits 0; otherwise the first failing
// rank's status (128+signal for signaled ranks), with a one-line
// description on stderr.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mpi/launch.h"

namespace mpid = ngsx::mpi::detail;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: ngsx_mpirun -n <ranks> -- <program> [args...]\n"
               "\n"
               "Runs <program> as <ranks> cooperating processes forming one\n"
               "minimpi world over tcp (see docs/DISTRIBUTED.md).\n"
               "\n"
               "  -n, --ranks N      number of ranks (required, >= 1)\n"
               "  -h, --help         this message\n");
}

std::string describe_exit(int rank, int status) {
  std::string out = "ngsx_mpirun: rank " + std::to_string(rank);
  if (WIFSIGNALED(status)) {
    out += " terminated by signal " + std::to_string(WTERMSIG(status));
  } else if (WIFEXITED(status)) {
    out += " exited with status " + std::to_string(WEXITSTATUS(status));
  } else {
    out += " ended abnormally";
  }
  return out;
}

void setenv_int(const char* name, long value) {
  ::setenv(name, std::to_string(value).c_str(), 1);
}

}  // namespace

int main(int argc, char** argv) {
  int nranks = 0;
  int progi = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-n" || a == "--ranks") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ngsx_mpirun: %s needs a value\n", a.c_str());
        return 64;
      }
      nranks = std::atoi(argv[++i]);
    } else if (a == "-h" || a == "--help") {
      usage(stdout);
      return 0;
    } else if (a == "--") {
      progi = i + 1;
      break;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "ngsx_mpirun: unknown option '%s'\n", a.c_str());
      usage(stderr);
      return 64;
    } else {
      progi = i;  // first positional starts the command
      break;
    }
  }
  if (nranks < 1 || progi < 0 || progi >= argc) {
    usage(stderr);
    return 64;
  }
  // The rendezvous listener, bound before the first fork so rank 0
  // inherits it.
  int listen_fd = -1;
  try {
    uint16_t port = 0;
    listen_fd = mpid::tcp_bind_listener("127.0.0.1", &port);
    ::setenv("NGSX_MPI_TCP_RENDEZVOUS",
             ("127.0.0.1:" + std::to_string(port)).c_str(), 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ngsx_mpirun: %s\n", e.what());
    return 71;
  }

  // Environment shared by every rank (children inherit, then override
  // their rank between fork and exec).
  ::setenv("NGSX_MPI_TRANSPORT", "tcp", 1);
  setenv_int("NGSX_MPI_SIZE", nranks);

  std::vector<pid_t> pids(static_cast<size_t>(nranks), -1);
  for (int r = 0; r < nranks; ++r) {
    pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "ngsx_mpirun: fork failed: %s\n",
                   std::strerror(errno));
      for (int k = 0; k < r; ++k) {
        ::kill(pids[static_cast<size_t>(k)], SIGKILL);
      }
      return 71;
    }
    if (pid == 0) {
      setenv_int("NGSX_MPI_RANK", r);
      // Only rank 0 owns the rendezvous listener.
      if (r == 0) {
        setenv_int("NGSX_MPI_TCP_LISTEN_FD", listen_fd);
      } else {
        ::close(listen_fd);
      }
      ::execvp(argv[progi], argv + progi);
      std::fprintf(stderr, "ngsx_mpirun: cannot exec '%s': %s\n",
                   argv[progi], std::strerror(errno));
      ::_exit(127);
    }
    pids[static_cast<size_t>(r)] = pid;
  }

  int first_failure = 0;
  std::string first_reason;
  for (int reaped = 0; reaped < nranks;) {
    int status = 0;
    pid_t got = ::waitpid(-1, &status, 0);
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    int rank = -1;
    for (int r = 0; r < nranks; ++r) {
      if (pids[static_cast<size_t>(r)] == got) {
        rank = r;
        break;
      }
    }
    if (rank < 0) {
      continue;  // not one of ours
    }
    ++reaped;
    const bool failed =
        WIFSIGNALED(status) || (WIFEXITED(status) && WEXITSTATUS(status) != 0);
    if (failed && first_failure == 0) {
      first_failure =
          WIFSIGNALED(status) ? 128 + WTERMSIG(status) : WEXITSTATUS(status);
      first_reason = describe_exit(rank, status);
    }
  }

  ::close(listen_fd);
  if (first_failure != 0) {
    std::fprintf(stderr, "%s\n", first_reason.c_str());
  }
  return first_failure;
}
