// ngsx/mpi/minimpi.h
//
// minimpi: a message-passing runtime with MPI-shaped semantics and
// pluggable transports.
//
// The paper's framework is "implemented in C++ with MPI" on a 32-node
// cluster. This container has no MPI installation, so ngsx expresses its
// parallel algorithms against this small communicator interface instead.
// Point-to-point sends, barriers and collectives have the same blocking
// semantics as their MPI counterparts (send is buffered/eager like
// MPI_Bsend; recv blocks; collectives must be called by every rank in the
// same order), so Algorithm 1's boundary exchange, the NL-means halo
// replication and Algorithm 2's gather+reduce execute with real concurrency
// and the same communication structure they would have under MPI.
//
// Where the ranks actually live is a transport decision, selected by
// NGSX_MPI_TRANSPORT (read at each run() call):
//
//   threads  each rank is an OS thread of this process (the default)
//   tcp      each rank is a process (any host); messages cross TCP
//            connections
//
// Under tcp, run() either forks its own ranks (standalone binaries:
// rank 0 is the calling process, ranks 1..N-1 are forked children) or
// joins a world launched by `ngsx_mpirun` (every rank is a separate
// exec'd process). docs/DISTRIBUTED.md is the normative contract for all
// of this: ordering and buffering guarantees, wire formats, failure
// semantics, and the launcher protocol.
//
// Usage:
//
//   ngsx::mpi::run(8, [&](ngsx::mpi::Comm& comm) {
//     if (comm.rank() == 0) comm.send_value(1, /*tag=*/0, 42);
//     if (comm.rank() == 1) int v = comm.recv_value<int>(0, 0);
//     comm.barrier();
//     double total = comm.allreduce_sum(local);
//   });
//
// Error handling: if any rank throws, the world is aborted, blocked ranks
// are woken with AbortError, and run() rethrows the first failure (for the
// tcp backend, an exception of the same ngsx error family,
// reconstructed from the failing rank's error).
//
// Multi-process correctness: under tcp the rank bodies execute in
// separate address spaces, so lambda captures are per-rank *copies* — a
// rank writing into a captured vector is invisible to the others. Code
// that must work on every backend routes results through the communicator
// (gather/allgather/bcast) and gates any single-writer shared-memory
// stores on ranks_share_address_space().

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/common.h"

namespace ngsx::mpi {

/// Thrown inside surviving ranks when another rank has failed; run()
/// rethrows the original error, not this one.
class AbortError : public Error {
 public:
  AbortError() : Error("minimpi: world aborted by a failing rank") {}
};

namespace detail {
class Endpoint;
}  // namespace detail

class Comm;

namespace detail {
/// Internal factory used by the transport runners (launch.cpp).
Comm make_comm(Endpoint* ep);
}  // namespace detail

// ---- transport selection ---------------------------------------------------

enum class Transport {
  kThreads,  // ranks are OS threads of this process (default)
  kTcp,      // ranks are processes, TCP connections
};

/// The transport run() will use, resolved from NGSX_MPI_TRANSPORT
/// ("threads" | "tcp"; unset or empty means threads). Re-read on
/// every call, so tests can switch backends between run()s. Throws
/// UsageError on an unrecognized value.
Transport transport();

/// "threads" or "tcp" for the current transport().
const char* transport_name();

/// True when this process was started by `ngsx_mpirun` (NGSX_MPI_RANK /
/// NGSX_MPI_SIZE are set): the process *is* one rank of a launched world,
/// and run(n, body) requires n == launched_size().
bool launched();
int launched_rank();  // 0 when not launched
int launched_size();  // 1 when not launched

/// True when all ranks of the innermost active run() share this process's
/// address space (threads backend). False inside tcp rank bodies.
/// Multi-backend code uses this to gate single-writer stores into captured
/// shared state:
///
///   if (comm.rank() == 0 || !mpi::ranks_share_address_space())
///     result = ...;  // threads: only rank 0 writes (no data race);
///                    // processes: every rank fills its own copy
bool ranks_share_address_space();

// ---- communicator ----------------------------------------------------------

/// Per-rank communicator handle. Not thread-safe: each rank owns exactly one
/// Comm and uses it from its own thread only (mirroring MPI_COMM_WORLD use).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }

  // ---- point-to-point -----------------------------------------------------

  /// Buffered (eager) send; never blocks on the receiver. May block
  /// transiently for TCP socket buffer space — see docs/DISTRIBUTED.md
  /// "Buffering bounds".
  void send(int dest, int tag, std::string_view payload);

  /// Blocks until a message with matching (source, tag) arrives. Messages
  /// from the same (source, tag) are delivered FIFO.
  std::string recv(int source, int tag);

  /// True if a matching message is already queued (MPI_Iprobe analogue).
  bool probe(int source, int tag);

  // Typed wrappers. The wire format for a T is its in-memory object
  // representation, byte for byte — which is only meaningful when T is
  // trivially copyable (enforced below) AND every rank runs a binary with
  // the same ABI: same endianness, same type sizes, same struct padding.
  // That holds trivially for threads (one binary, one process) and for
  // tcp ranks launched from the same build on same-endian hosts; the tcp
  // handshake verifies endianness at connect time and refuses mixed-endian
  // worlds rather than silently corrupting values. Cross-ABI portability
  // beyond that check is explicitly out of scope — see
  // docs/DISTRIBUTED.md "Typed messages and the ABI contract".

  /// Typed scalar convenience wrappers for trivially copyable T.
  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "minimpi sends raw object bytes: T must be trivially "
                  "copyable (see docs/DISTRIBUTED.md)");
    send(dest, tag,
         std::string_view(reinterpret_cast<const char*>(&v), sizeof(T)));
  }

  template <typename T>
  T recv_value(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "minimpi sends raw object bytes: T must be trivially "
                  "copyable (see docs/DISTRIBUTED.md)");
    std::string payload = recv(source, tag);
    NGSX_CHECK_MSG(payload.size() == sizeof(T),
                   "typed recv size mismatch");
    T v;
    __builtin_memcpy(&v, payload.data(), sizeof(T));
    return v;
  }

  /// Typed vector convenience wrappers for trivially copyable T.
  template <typename T>
  void send_vector(int dest, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "minimpi sends raw object bytes: T must be trivially "
                  "copyable (see docs/DISTRIBUTED.md)");
    send(dest, tag,
         std::string_view(reinterpret_cast<const char*>(v.data()),
                          v.size() * sizeof(T)));
  }

  template <typename T>
  std::vector<T> recv_vector(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "minimpi sends raw object bytes: T must be trivially "
                  "copyable (see docs/DISTRIBUTED.md)");
    std::string payload = recv(source, tag);
    NGSX_CHECK_MSG(payload.size() % sizeof(T) == 0,
                   "typed recv size not a multiple of element size");
    std::vector<T> v(payload.size() / sizeof(T));
    if (!payload.empty()) {  // an empty vector's data() may be null
      __builtin_memcpy(v.data(), payload.data(), payload.size());
    }
    return v;
  }

  // ---- collectives (must be called by all ranks, in the same order) ------

  /// Blocks until every rank has entered the barrier.
  void barrier();

  /// Root's payload is returned on every rank.
  std::string bcast(int root, std::string payload);

  template <typename T>
  T bcast_value(int root, T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::string s = bcast(
        root, std::string(reinterpret_cast<const char*>(&v), sizeof(T)));
    T out;
    __builtin_memcpy(&out, s.data(), sizeof(T));
    return out;
  }

  /// Gathers each rank's payload at `root`, indexed by rank. Non-root ranks
  /// receive an empty vector.
  std::vector<std::string> gather(int root, std::string_view local);

  /// Gathers at every rank (gather to 0 + bcast).
  std::vector<std::string> allgather(std::string_view local);

  template <typename T>
  std::vector<T> gather_values(int root, const T& local) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto parts = gather(
        root,
        std::string_view(reinterpret_cast<const char*>(&local), sizeof(T)));
    std::vector<T> out;
    out.reserve(parts.size());
    for (const auto& p : parts) {
      T v;
      NGSX_CHECK(p.size() == sizeof(T));
      __builtin_memcpy(&v, p.data(), sizeof(T));
      out.push_back(v);
    }
    return out;
  }

  /// gather_values delivered at every rank.
  template <typename T>
  std::vector<T> allgather_values(const T& local) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto parts = allgather(
        std::string_view(reinterpret_cast<const char*>(&local), sizeof(T)));
    std::vector<T> out;
    out.reserve(parts.size());
    for (const auto& p : parts) {
      T v;
      NGSX_CHECK(p.size() == sizeof(T));
      __builtin_memcpy(&v, p.data(), sizeof(T));
      out.push_back(v);
    }
    return out;
  }

  /// Assembles an array partitioned over the ranks: `fill(slice)` writes
  /// this rank's elements [lo, hi) of `whole` through `slice`, and on
  /// return `whole` holds every rank's slice on every rank (the ranks'
  /// ranges must tile `whole` in rank order). Ranks that share one address
  /// space write their disjoint slices in place and meet at a barrier;
  /// process ranks allgather the slices into their own copies.
  template <typename T, typename Fill>
  void assemble_slices(std::span<T> whole, size_t lo, size_t hi,
                       Fill&& fill) {
    static_assert(std::is_trivially_copyable_v<T>);
    NGSX_CHECK(lo <= hi && hi <= whole.size());
    if (ranks_share_address_space()) {
      fill(whole.data() + lo);
      barrier();
      return;
    }
    std::vector<T> mine(hi - lo);
    fill(mine.data());
    auto parts = allgather(
        std::string_view(reinterpret_cast<const char*>(mine.data()),
                         mine.size() * sizeof(T)));
    size_t at = 0;
    for (const auto& p : parts) {
      const size_t count = p.size() / sizeof(T);
      NGSX_CHECK(p.size() % sizeof(T) == 0 && count <= whole.size() - at);
      if (count != 0) {
        __builtin_memcpy(whole.data() + at, p.data(), p.size());
      }
      at += count;
    }
    NGSX_CHECK(at == whole.size());
  }

  /// Sum-reduction to `root`; other ranks get T{}.
  template <typename T>
  T reduce_sum(int root, const T& local) {
    auto vals = gather_values<T>(root, local);
    T total{};
    for (const auto& v : vals) {
      total += v;
    }
    return total;
  }

  /// Sum-reduction delivered to every rank.
  template <typename T>
  T allreduce_sum(const T& local) {
    return bcast_value(0, reduce_sum(0, local));
  }


 private:
  friend Comm detail::make_comm(detail::Endpoint*);
  explicit Comm(detail::Endpoint* ep);

  // Internal send/recv: shared by the public p2p calls and the
  // collectives, so transport metrics count every message exactly once.
  void send_internal(int dest, int tag, std::string_view payload);
  std::string recv_internal(int source, int tag);

  detail::Endpoint* ep_;
  int rank_;
  int size_;
};

/// Launches `nranks` ranks, each running `body` with its own Comm, and
/// joins them. Rethrows the first rank failure. Reentrant for the threads
/// backend: distinct run() calls use distinct worlds (but do not nest
/// run() inside a rank body).
///
/// Backend-specific behavior (normative details in docs/DISTRIBUTED.md):
///  * threads — each rank is a thread of this process.
///  * tcp, standalone — this process becomes rank 0 and forks ranks
///    1..N-1; run() returns after every child has exited.
///  * tcp, launched (`ngsx_mpirun -n N prog`) — this process is rank
///    launched_rank() of a persistent N-rank world; nranks must equal N,
///    every rank must call run() the same number of times in the same
///    order, and run() ends with an implicit barrier.
void run(int nranks, const std::function<void(Comm&)>& body);

}  // namespace ngsx::mpi
