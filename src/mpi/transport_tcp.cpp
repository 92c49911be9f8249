// ngsx/mpi/transport_tcp.cpp
//
// Multi-process transport over TCP, one duplex connection per rank pair.
//
// Bootstrap (normative copy in docs/DISTRIBUTED.md "tcp wire protocol"):
//
//   1. Rank 0 listens at the rendezvous address (NGSX_MPI_TCP_RENDEZVOUS,
//      or a pre-bound fd from ngsx_mpirun / the fork runner).
//   2. Every rank > 0 binds its own ephemeral listener, dials rank 0 with
//      retry/backoff, and sends a fixed 64-byte HELLO carrying its rank,
//      an endianness probe, and the address of its listener.
//   3. When all N-1 HELLOs are in, rank 0 answers each with a TABLE frame
//      listing every rank's listener; rank i then dials ranks 1..i-1 and
//      accepts connections from ranks i+1..N-1, completing the mesh.
//
// After bootstrap every frame is { u8 kind, u8 pad[3], u32 src, u32 tag,
// u32 epoch, u64 len } + payload, little-endian (the HELLO probe refuses
// mixed-endian worlds up front, so raw structs are safe on the wire).
// One reader thread per peer demultiplexes into the rank's mailbox, which
// is what makes eager-send deadlock-free: both sides always drain their
// sockets no matter what their application thread is blocked on.
//
// Teardown: a graceful endpoint sends FIN on every connection; a reader
// that sees EOF *without* FIN knows the peer died and aborts the world —
// that is the crash-detection path.

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mpi/launch.h"
#include "mpi/minimpi.h"
#include "mpi/transport.h"

namespace ngsx::mpi::detail {

namespace {

constexpr uint8_t kKindTable = 2;
constexpr uint8_t kKindData = 3;
constexpr uint8_t kKindAbort = 4;
constexpr uint8_t kKindFin = 5;

constexpr uint32_t kHelloMagic = 0x5853474e;  // "NGSX" as raw bytes
constexpr uint32_t kTcpVersion = 1;
constexpr uint16_t kEndianProbe = 0x0102;

struct Hello {
  uint32_t magic;
  uint32_t version;
  uint16_t endian_probe;
  uint16_t listen_port;
  uint32_t rank;
  char host[44];  // NUL-terminated advertise address
  uint32_t reserved;
};
static_assert(sizeof(Hello) == 64);

struct FrameHeader {
  uint8_t kind;
  uint8_t pad[3];
  uint32_t src;
  uint32_t tag;
  uint32_t epoch;
  uint64_t len;
};
static_assert(sizeof(FrameHeader) == 24);

using Clock = std::chrono::steady_clock;

bool read_full(int fd, void* buf, size_t len) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    ssize_t n = ::recv(fd, p, len, 0);
    if (n == 0) {
      return false;  // EOF
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool write_full(int fd, const void* buf, size_t len) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_recv_timeout(int fd, uint64_t ms) {
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

struct sockaddr_in resolve(const std::string& host, uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* res = nullptr;
    int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
    if (rc != 0 || res == nullptr) {
      throw IoError("minimpi tcp: cannot resolve host '" + host + "'");
    }
    addr.sin_addr =
        reinterpret_cast<struct sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  return addr;
}

/// Dials host:port with exponential backoff (10ms doubling to 500ms) until
/// the deadline; a listener that is not up yet simply refuses and we retry,
/// which is what lets ranks of a hand-launched world start in any order.
int connect_retry(const std::string& host, uint16_t port,
                  Clock::time_point deadline) {
  struct sockaddr_in addr = resolve(host, port);
  auto backoff = std::chrono::milliseconds(10);
  for (;;) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    NGSX_CHECK_MSG(fd >= 0, "socket() failed");
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      set_nodelay(fd);
      return fd;
    }
    ::close(fd);
    if (Clock::now() + backoff >= deadline) {
      throw IoError("minimpi tcp: cannot connect to " + host + ":" +
                    std::to_string(port) + " before the timeout");
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(500));
  }
}

Hello make_hello(int rank, uint16_t listen_port,
                 const std::string& advertise_host) {
  Hello h;
  std::memset(&h, 0, sizeof(h));
  h.magic = kHelloMagic;
  h.version = kTcpVersion;
  h.endian_probe = kEndianProbe;
  h.listen_port = listen_port;
  h.rank = static_cast<uint32_t>(rank);
  std::strncpy(h.host, advertise_host.c_str(), sizeof(h.host) - 1);
  return h;
}

void check_hello(const Hello& h, int nranks) {
  NGSX_CHECK_MSG(h.magic == kHelloMagic,
                 "minimpi tcp: peer sent a bad HELLO (not an ngsx rank, or "
                 "a mixed-endian world)");
  if (h.endian_probe != kEndianProbe) {
    throw UsageError(
        "minimpi tcp: peer has different endianness; mixed-endian worlds "
        "are not supported (see docs/DISTRIBUTED.md)");
  }
  NGSX_CHECK_MSG(h.version == kTcpVersion,
                 "minimpi tcp: peer speaks protocol version " +
                     std::to_string(h.version) + ", expected " +
                     std::to_string(kTcpVersion));
  NGSX_CHECK_MSG(h.rank < static_cast<uint32_t>(nranks),
                 "minimpi tcp: HELLO from out-of-range rank");
}

struct PeerAddr {
  std::string host;
  uint16_t port = 0;
};

class TcpEndpoint final : public Endpoint {
 public:
  TcpEndpoint(const TcpConfig& cfg, int rank, int nranks)
      : Endpoint(rank, nranks), conns_(static_cast<size_t>(nranks)) {
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(cfg.connect_timeout_ms);
    try {
      if (rank == 0) {
        bootstrap_rank0(cfg, deadline);
      } else {
        bootstrap_peer(cfg, deadline);
      }
    } catch (...) {
      close_all();
      throw;
    }
    for (int peer = 0; peer < size_; ++peer) {
      if (peer != rank_) {
        set_recv_timeout(conns_[static_cast<size_t>(peer)].fd, 0);
        readers_.emplace_back([this, peer] { reader_loop(peer); });
      }
    }
  }

  ~TcpEndpoint() override {
    stopping_.store(true, std::memory_order_release);
    if (!mailbox_.aborted()) {
      FrameHeader fin{};
      fin.kind = kKindFin;
      fin.src = static_cast<uint32_t>(rank_);
      for (int peer = 0; peer < size_; ++peer) {
        if (peer == rank_) {
          continue;
        }
        Conn& c = conns_[static_cast<size_t>(peer)];
        std::lock_guard<std::mutex> lock(c.send_mu);
        write_full(c.fd, &fin, sizeof(fin));  // best effort
      }
    } else {
      // Tearing down because the world aborted: tell every peer *why*
      // before our sockets close, so a rank that has not noticed yet
      // records the root cause instead of mistaking this orderly shutdown
      // for a second crash.
      std::optional<ErrorInfo> info = abort_error();
      broadcast_abort(info ? *info
                           : ErrorInfo{"AbortError",
                                       "minimpi: world aborted"});
    }
    // Unblock our readers; peers that have not torn down yet will have
    // already consumed our FIN before they see this EOF.
    for (int peer = 0; peer < size_; ++peer) {
      if (peer != rank_) {
        ::shutdown(conns_[static_cast<size_t>(peer)].fd, SHUT_RDWR);
      }
    }
    for (auto& t : readers_) {
      t.join();
    }
    close_all();
  }

  void send(int dest, int tag, std::string_view payload) override {
    check_peer(dest);
    if (dest == rank_) {
      mailbox_.deliver(rank_, tag, epoch_, std::string(payload));
      return;
    }
    if (mailbox_.aborted()) {
      throw AbortError();
    }
    Conn& c = conns_[static_cast<size_t>(dest)];
    FrameHeader h{};
    h.kind = kKindData;
    h.src = static_cast<uint32_t>(rank_);
    h.tag = static_cast<uint32_t>(tag);
    h.epoch = epoch_;
    h.len = payload.size();
    std::lock_guard<std::mutex> lock(c.send_mu);
    if (!write_full(c.fd, &h, sizeof(h)) ||
        !write_full(c.fd, payload.data(), payload.size())) {
      if (!mailbox_.aborted()) {
        record_error(ErrorInfo{
            "Error", "minimpi: rank " + std::to_string(dest) +
                         " is unreachable (send failed: " +
                         std::string(std::strerror(errno)) + ")"});
        mailbox_.abort();
      }
      throw AbortError();
    }
  }

  std::string recv(int src, int tag) override {
    check_peer(src);
    return mailbox_.recv(src, tag, epoch_);
  }

  bool probe(int src, int tag) override {
    check_peer(src);
    return mailbox_.probe(src, tag, epoch_);
  }

  void abort(const ErrorInfo& info) override {
    record_error(info);
    broadcast_abort(info);
    mailbox_.abort();
  }

  std::optional<ErrorInfo> abort_error() const override {
    std::lock_guard<std::mutex> lock(error_mu_);
    return first_error_;
  }

  void begin_epoch(uint32_t epoch) override {
    epoch_ = epoch;
    mailbox_.begin_epoch(epoch);
  }

  const char* backend_name() const override { return "tcp"; }

 private:
  struct Conn {
    int fd = -1;
    std::mutex send_mu;
  };

  /// First-wins, but a bare AbortError never claims the slot: it only ever
  /// means "some other rank failed", so recording it would mask the actual
  /// root cause arriving a moment later.
  void record_error(const ErrorInfo& info) {
    if (info.kind == "AbortError") {
      return;
    }
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!first_error_) {
      first_error_ = info;
    }
  }

  /// Best-effort ABORT frame to every peer (dead connections are skipped by
  /// the failed write; MSG_NOSIGNAL keeps EPIPE from killing us).
  void broadcast_abort(const ErrorInfo& info) {
    std::string payload = encode_error(info);
    FrameHeader h{};
    h.kind = kKindAbort;
    h.src = static_cast<uint32_t>(rank_);
    h.len = payload.size();
    for (int peer = 0; peer < size_; ++peer) {
      if (peer == rank_) {
        continue;
      }
      Conn& c = conns_[static_cast<size_t>(peer)];
      std::lock_guard<std::mutex> lock(c.send_mu);
      if (write_full(c.fd, &h, sizeof(h))) {
        write_full(c.fd, payload.data(), payload.size());
      }
    }
  }

  void close_all() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) {
        ::close(c.fd);
        c.fd = -1;
      }
    }
    if (owned_listen_fd_ >= 0) {
      ::close(owned_listen_fd_);
      owned_listen_fd_ = -1;
    }
  }

  uint64_t remaining_ms(Clock::time_point deadline) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    return left.count() > 0 ? static_cast<uint64_t>(left.count()) : 1;
  }

  /// Accepts one connection and reads its HELLO; throws on timeout.
  int accept_hello(int listen_fd, Clock::time_point deadline, Hello* hello) {
    struct pollfd pfd = {listen_fd, POLLIN, 0};
    int rc = ::poll(&pfd, 1, static_cast<int>(remaining_ms(deadline)));
    NGSX_CHECK_MSG(rc > 0,
                   "minimpi tcp: timed out waiting for ranks to connect");
    int fd = ::accept(listen_fd, nullptr, nullptr);
    NGSX_CHECK_MSG(fd >= 0, "minimpi tcp: accept() failed");
    set_nodelay(fd);
    set_recv_timeout(fd, remaining_ms(deadline));
    if (!read_full(fd, hello, sizeof(*hello))) {
      ::close(fd);
      throw IoError("minimpi tcp: connection dropped during HELLO");
    }
    check_hello(*hello, size_);
    return fd;
  }

  void bootstrap_rank0(const TcpConfig& cfg, Clock::time_point deadline) {
    int listen_fd = cfg.listen_fd;
    if (listen_fd < 0) {
      NGSX_CHECK_MSG(cfg.rendezvous_port != 0,
                     "minimpi tcp: rank 0 needs NGSX_MPI_TCP_RENDEZVOUS or "
                     "an inherited listener fd");
      uint16_t port = cfg.rendezvous_port;
      owned_listen_fd_ = tcp_bind_listener("0.0.0.0", &port);
      listen_fd = owned_listen_fd_;
    }
    std::vector<PeerAddr> table(static_cast<size_t>(size_));
    for (int i = 1; i < size_; ++i) {
      Hello hello;
      int fd = accept_hello(listen_fd, deadline, &hello);
      size_t r = hello.rank;
      NGSX_CHECK_MSG(conns_[r].fd < 0,
                     "minimpi tcp: duplicate HELLO from rank " +
                         std::to_string(hello.rank));
      conns_[r].fd = fd;
      table[r].host = hello.host;
      table[r].port = hello.listen_port;
    }
    // TABLE: every peer listener, so rank i can dial ranks 1..i-1.
    std::string payload;
    for (int r = 1; r < size_; ++r) {
      uint32_t rr = static_cast<uint32_t>(r);
      uint16_t port = table[static_cast<size_t>(r)].port;
      uint16_t hostlen =
          static_cast<uint16_t>(table[static_cast<size_t>(r)].host.size());
      payload.append(reinterpret_cast<const char*>(&rr), 4);
      payload.append(reinterpret_cast<const char*>(&port), 2);
      payload.append(reinterpret_cast<const char*>(&hostlen), 2);
      payload += table[static_cast<size_t>(r)].host;
    }
    FrameHeader h{};
    h.kind = kKindTable;
    h.len = payload.size();
    for (int r = 1; r < size_; ++r) {
      int fd = conns_[static_cast<size_t>(r)].fd;
      NGSX_CHECK_MSG(write_full(fd, &h, sizeof(h)) &&
                         write_full(fd, payload.data(), payload.size()),
                     "minimpi tcp: failed to send rendezvous table");
    }
  }

  void bootstrap_peer(const TcpConfig& cfg, Clock::time_point deadline) {
    NGSX_CHECK_MSG(!cfg.rendezvous_host.empty() && cfg.rendezvous_port != 0,
                   "minimpi tcp: ranks > 0 need NGSX_MPI_TCP_RENDEZVOUS");
    uint16_t my_port = 0;
    owned_listen_fd_ = tcp_bind_listener("0.0.0.0", &my_port);

    int fd0 = connect_retry(cfg.rendezvous_host, cfg.rendezvous_port,
                            deadline);
    Hello hello = make_hello(rank_, my_port, cfg.advertise_host);
    NGSX_CHECK_MSG(write_full(fd0, &hello, sizeof(hello)),
                   "minimpi tcp: failed to send HELLO to rank 0");
    conns_[0].fd = fd0;

    set_recv_timeout(fd0, remaining_ms(deadline));
    FrameHeader th;
    NGSX_CHECK_MSG(read_full(fd0, &th, sizeof(th)) && th.kind == kKindTable,
                   "minimpi tcp: expected rendezvous table from rank 0");
    std::string payload(th.len, '\0');
    NGSX_CHECK_MSG(read_full(fd0, payload.data(), payload.size()),
                   "minimpi tcp: truncated rendezvous table");
    std::vector<PeerAddr> table(static_cast<size_t>(size_));
    size_t pos = 0;
    for (int i = 1; i < size_; ++i) {
      NGSX_CHECK(pos + 8 <= payload.size());
      uint32_t rr;
      uint16_t port, hostlen;
      std::memcpy(&rr, payload.data() + pos, 4);
      std::memcpy(&port, payload.data() + pos + 4, 2);
      std::memcpy(&hostlen, payload.data() + pos + 6, 2);
      pos += 8;
      NGSX_CHECK(rr < static_cast<uint32_t>(size_) &&
                 pos + hostlen <= payload.size());
      table[rr].host = payload.substr(pos, hostlen);
      table[rr].port = port;
      pos += hostlen;
    }

    // Complete the mesh: dial the lower ranks, accept the higher ones.
    for (int peer = 1; peer < rank_; ++peer) {
      int fd = connect_retry(table[static_cast<size_t>(peer)].host,
                             table[static_cast<size_t>(peer)].port,
                             deadline);
      Hello mesh_hello = make_hello(rank_, my_port, cfg.advertise_host);
      NGSX_CHECK_MSG(write_full(fd, &mesh_hello, sizeof(mesh_hello)),
                     "minimpi tcp: failed to send mesh HELLO");
      conns_[static_cast<size_t>(peer)].fd = fd;
    }
    for (int i = rank_ + 1; i < size_; ++i) {
      Hello mesh_hello;
      int fd = accept_hello(owned_listen_fd_, deadline, &mesh_hello);
      size_t r = mesh_hello.rank;
      NGSX_CHECK_MSG(static_cast<int>(r) > rank_ && conns_[r].fd < 0,
                     "minimpi tcp: unexpected mesh HELLO from rank " +
                         std::to_string(mesh_hello.rank));
      conns_[r].fd = fd;
    }
    ::close(owned_listen_fd_);
    owned_listen_fd_ = -1;
  }

  void reader_loop(int peer) {
    const int fd = conns_[static_cast<size_t>(peer)].fd;
    for (;;) {
      FrameHeader h;
      if (!read_full(fd, &h, sizeof(h))) {
        on_eof(peer);
        return;
      }
      switch (h.kind) {
        case kKindData: {
          std::string payload(h.len, '\0');
          if (!read_full(fd, payload.data(), payload.size())) {
            on_eof(peer);
            return;
          }
          mailbox_.deliver(peer, static_cast<int>(h.tag), h.epoch,
                           std::move(payload));
          break;
        }
        case kKindAbort: {
          std::string payload(h.len, '\0');
          if (read_full(fd, payload.data(), payload.size())) {
            record_error(decode_error(payload));
          } else {
            record_error(ErrorInfo{"Error",
                                   "minimpi: rank " + std::to_string(peer) +
                                       " aborted"});
          }
          mailbox_.abort();
          return;
        }
        case kKindFin:
          return;  // graceful goodbye; the peer sends nothing further
        default:
          record_error(ErrorInfo{
              "Error", "minimpi: protocol violation from rank " +
                           std::to_string(peer) + " (frame kind " +
                           std::to_string(h.kind) + ")"});
          mailbox_.abort();
          return;
      }
    }
  }

  /// EOF without FIN: the peer process died. Expected during our own
  /// teardown or after an abort; a world abort otherwise.
  void on_eof(int peer) {
    if (stopping_.load(std::memory_order_acquire) || mailbox_.aborted()) {
      return;
    }
    record_error(ErrorInfo{
        "Error", "minimpi: rank " + std::to_string(peer) +
                     " closed its connection unexpectedly (crashed?)"});
    mailbox_.abort();
  }

  std::vector<Conn> conns_;
  std::vector<std::thread> readers_;
  Mailbox mailbox_;
  uint32_t epoch_ = 0;
  int owned_listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  mutable std::mutex error_mu_;
  std::optional<ErrorInfo> first_error_;
};

}  // namespace

// ---- bootstrap helpers -----------------------------------------------------

TcpConfig tcp_config_from_env() {
  TcpConfig cfg;
  cfg.connect_timeout_ms =
      env_u64("NGSX_MPI_TCP_CONNECT_TIMEOUT_MS", 15000);
  const char* host = std::getenv("NGSX_MPI_TCP_HOST");
  cfg.advertise_host =
      (host != nullptr && *host != '\0') ? host : "127.0.0.1";
  cfg.listen_fd =
      static_cast<int>(env_u64("NGSX_MPI_TCP_LISTEN_FD", 0)) - 0;
  if (cfg.listen_fd == 0) {
    cfg.listen_fd = -1;
  }
  if (const char* rv = std::getenv("NGSX_MPI_TCP_RENDEZVOUS");
      rv != nullptr && *rv != '\0') {
    std::string s = rv;
    size_t colon = s.rfind(':');
    NGSX_CHECK_MSG(colon != std::string::npos && colon + 1 < s.size(),
                   "NGSX_MPI_TCP_RENDEZVOUS must be host:port");
    cfg.rendezvous_host = s.substr(0, colon);
    cfg.rendezvous_port =
        static_cast<uint16_t>(std::stoul(s.substr(colon + 1)));
  }
  return cfg;
}

int tcp_bind_listener(const std::string& host, uint16_t* port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  NGSX_CHECK_MSG(fd >= 0, "socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = resolve(host, *port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw IoError("minimpi tcp: cannot bind " + host + ":" +
                  std::to_string(*port) + ": " + std::strerror(errno));
  }
  NGSX_CHECK_MSG(::listen(fd, 128) == 0, "listen() failed");
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  NGSX_CHECK_MSG(
      ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) ==
          0,
      "getsockname() failed");
  *port = ntohs(bound.sin_port);
  return fd;
}

std::unique_ptr<Endpoint> make_tcp_endpoint(const TcpConfig& cfg, int rank,
                                            int nranks) {
  return std::make_unique<TcpEndpoint>(cfg, rank, nranks);
}

}  // namespace ngsx::mpi::detail
