#include "mpi/minimpi.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "mpi/launch.h"
#include "mpi/transport.h"
#include "obs/metrics.h"

namespace ngsx::mpi {

// ---- transport selection ---------------------------------------------------

Transport transport() {
  const char* v = std::getenv("NGSX_MPI_TRANSPORT");
  if (v == nullptr || *v == '\0' || std::strcmp(v, "threads") == 0) {
    return Transport::kThreads;
  }
  if (std::strcmp(v, "tcp") == 0) {
    return Transport::kTcp;
  }
  throw UsageError(std::string("NGSX_MPI_TRANSPORT must be threads or tcp; "
                               "got '") +
                   v + "'");
}

const char* transport_name() {
  switch (transport()) {
    case Transport::kThreads:
      return "threads";
    case Transport::kTcp:
      return "tcp";
  }
  return "threads";
}

bool launched() { return std::getenv("NGSX_MPI_RANK") != nullptr; }

int launched_rank() {
  return static_cast<int>(detail::env_u64("NGSX_MPI_RANK", 0));
}

int launched_size() {
  return static_cast<int>(detail::env_u64("NGSX_MPI_SIZE", 1));
}

namespace detail {
namespace {
std::atomic<bool> g_ranks_share_address_space{true};
}  // namespace

void set_ranks_share_address_space(bool shared) {
  g_ranks_share_address_space.store(shared, std::memory_order_relaxed);
}
}  // namespace detail

bool ranks_share_address_space() {
  return detail::g_ranks_share_address_space.load(std::memory_order_relaxed);
}

// ---- communicator ----------------------------------------------------------

// Collectives use tags in this reserved space; user tags must be < kBaseTag.
// FIFO delivery per (source, tag) plus the same-order collective contract
// makes a single internal tag sufficient.
namespace {

constexpr int kInternalTag = 1 << 30;

// mpi.transport.* is the transport-metrics contract (docs/OBSERVABILITY.md):
// every message any backend carries is counted exactly once on each side,
// and wait_us records how long recv-side matching blocked.
struct TransportMetrics {
  obs::Counter& send_messages = obs::counter("mpi.transport.send.messages");
  obs::Counter& send_bytes = obs::counter("mpi.transport.send.bytes");
  obs::Counter& recv_messages = obs::counter("mpi.transport.recv.messages");
  obs::Counter& recv_bytes = obs::counter("mpi.transport.recv.bytes");
  obs::Histogram& wait_us = obs::histogram("mpi.transport.wait_us");
};

TransportMetrics& metrics() {
  static TransportMetrics m;
  return m;
}

}  // namespace

namespace detail {
Comm make_comm(Endpoint* ep) { return Comm(ep); }
}  // namespace detail

Comm::Comm(detail::Endpoint* ep)
    : ep_(ep), rank_(ep->rank()), size_(ep->size()) {}

void Comm::send_internal(int dest, int tag, std::string_view payload) {
  metrics().send_messages.add(1);
  metrics().send_bytes.add(payload.size());
  ep_->send(dest, tag, payload);
}

std::string Comm::recv_internal(int source, int tag) {
  std::string payload;
  {
    obs::ScopedLatency wait(metrics().wait_us);
    payload = ep_->recv(source, tag);
  }
  metrics().recv_messages.add(1);
  metrics().recv_bytes.add(payload.size());
  return payload;
}

void Comm::send(int dest, int tag, std::string_view payload) {
  NGSX_CHECK_MSG(tag >= 0 && tag < kInternalTag,
                 "user tags must be in [0, 2^30)");
  send_internal(dest, tag, payload);
}

std::string Comm::recv(int source, int tag) {
  NGSX_CHECK_MSG(tag >= 0 && tag < kInternalTag,
                 "user tags must be in [0, 2^30)");
  return recv_internal(source, tag);
}

bool Comm::probe(int source, int tag) { return ep_->probe(source, tag); }

// Message-built barrier (gather-to-0 + release fan-out): identical
// structure on every backend, and a rank blocked here is woken by the
// same abort path as any blocked recv.
void Comm::barrier() {
  if (size_ == 1) {
    return;
  }
  if (rank_ == 0) {
    for (int r = 1; r < size_; ++r) {
      recv_internal(r, kInternalTag);
    }
    for (int r = 1; r < size_; ++r) {
      send_internal(r, kInternalTag, {});
    }
  } else {
    send_internal(0, kInternalTag, {});
    recv_internal(0, kInternalTag);
  }
}

std::string Comm::bcast(int root, std::string payload) {
  if (rank_ == root) {
    for (int r = 0; r < size_; ++r) {
      if (r != root) {
        send_internal(r, kInternalTag, payload);
      }
    }
    return payload;
  }
  return recv_internal(root, kInternalTag);
}

std::vector<std::string> Comm::gather(int root, std::string_view local) {
  if (rank_ != root) {
    send_internal(root, kInternalTag, local);
    return {};
  }
  std::vector<std::string> parts(static_cast<size_t>(size_));
  parts[static_cast<size_t>(root)] = std::string(local);
  for (int r = 0; r < size_; ++r) {
    if (r != root) {
      parts[static_cast<size_t>(r)] = recv_internal(r, kInternalTag);
    }
  }
  return parts;
}

std::vector<std::string> Comm::allgather(std::string_view local) {
  std::vector<std::string> parts = gather(0, local);
  // Serialize at root as length-prefixed frames, then broadcast.
  std::string frame;
  if (rank_ == 0) {
    for (const auto& p : parts) {
      uint64_t n = p.size();
      frame.append(reinterpret_cast<const char*>(&n), sizeof(n));
      frame += p;
    }
  }
  frame = bcast(0, std::move(frame));
  if (rank_ == 0) {
    return parts;
  }
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(size_));
  size_t pos = 0;
  while (pos < frame.size()) {
    uint64_t n;
    __builtin_memcpy(&n, frame.data() + pos, sizeof(n));
    pos += sizeof(n);
    out.emplace_back(frame.substr(pos, n));
    pos += n;
  }
  NGSX_CHECK(out.size() == static_cast<size_t>(size_));
  return out;
}

// ---- run() -----------------------------------------------------------------

void run(int nranks, const std::function<void(Comm&)>& body) {
  NGSX_CHECK_MSG(nranks >= 1, "need at least one rank");
  Transport t = transport();
  if (t == Transport::kThreads) {
    if (launched()) {
      throw UsageError(
          "NGSX_MPI_TRANSPORT=threads inside an ngsx_mpirun world would run "
          "the whole job once per process; use tcp");
    }
    detail::run_threads(nranks, body);
    return;
  }
  if (launched()) {
    detail::run_launched(nranks, body);
  } else {
    detail::run_forked(nranks, body);
  }
}

}  // namespace ngsx::mpi
