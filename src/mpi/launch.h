// ngsx/mpi/launch.h
//
// Internal: the run() drivers behind the two transports, plus the tcp
// world-bootstrap helpers shared between the library and the ngsx_mpirun
// launcher.
//
// Environment protocol (normative description in docs/DISTRIBUTED.md):
//
//   NGSX_MPI_TRANSPORT            threads | tcp (default threads)
//   NGSX_MPI_RANK / NGSX_MPI_SIZE set by ngsx_mpirun: this process is one
//                                 rank of a launched world
//   NGSX_MPI_TCP_RENDEZVOUS       host:port of rank 0's listener
//   NGSX_MPI_TCP_LISTEN_FD        rank 0 under ngsx_mpirun: inherited
//                                 pre-bound listener fd
//   NGSX_MPI_TCP_HOST             address this rank advertises (default
//                                 127.0.0.1)
//   NGSX_MPI_TCP_CONNECT_TIMEOUT_MS  rendezvous/connect budget (default
//                                 15000)

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "mpi/minimpi.h"
#include "mpi/transport.h"

namespace ngsx::mpi::detail {

// ---- run() drivers (dispatched from minimpi.cpp) --------------------------

/// Ranks are threads of this process (the historical minimpi behavior).
void run_threads(int nranks, const std::function<void(Comm&)>& body);

/// Standalone tcp: this process becomes rank 0 and forks ranks 1..N-1.
void run_forked(int nranks, const std::function<void(Comm&)>& body);

/// Under ngsx_mpirun: this process is one rank of a persistent world.
void run_launched(int nranks, const std::function<void(Comm&)>& body);

/// Flips what mpi::ranks_share_address_space() reports for this process.
void set_ranks_share_address_space(bool shared);

// ---- tcp world bootstrap --------------------------------------------------

struct TcpConfig {
  std::string rendezvous_host;   // where ranks > 0 find rank 0
  uint16_t rendezvous_port = 0;
  int listen_fd = -1;            // rank 0: pre-bound listener, or -1 to bind
  std::string advertise_host;    // address peers should dial back
  uint64_t connect_timeout_ms = 15000;
};

/// TcpConfig resolved from the NGSX_MPI_TCP_* environment (launched mode).
TcpConfig tcp_config_from_env();

/// Binds a listening socket on host:*port (0 = ephemeral; the bound port
/// is written back). The fd is inheritable. Used by ngsx_mpirun and the
/// fork runner to pre-bind rank 0's rendezvous listener.
int tcp_bind_listener(const std::string& host, uint16_t* port);

std::unique_ptr<Endpoint> make_tcp_endpoint(const TcpConfig& cfg, int rank,
                                            int nranks);

}  // namespace ngsx::mpi::detail
