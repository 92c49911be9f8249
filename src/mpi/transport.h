// ngsx/mpi/transport.h
//
// Internal transport seam behind ngsx::mpi::Comm.
//
// A *transport* moves tagged byte messages between ranks; everything above
// it (typed helpers, collectives, barrier, the run() drivers) is transport
// agnostic. Two backends implement the seam (docs/DISTRIBUTED.md is the
// normative contract):
//
//   * threads — ranks are OS threads of one process; send deposits straight
//     into the destination's mailbox (transport_threads.cpp).
//   * tcp     — ranks are processes on one or more hosts; one duplex
//     length-prefixed-frame connection per rank pair, rendezvous through a
//     rank-0 listener (transport_tcp.cpp).
//
// Every backend preserves the minimpi semantics: eager (buffered) sends,
// FIFO delivery per (source, tag), blocking recv, abort wakes every blocked
// rank. The tcp backend additionally stamps each message with a world
// *epoch* (one per run() call in a launched world) so messages a finished
// run never received cannot leak into the next run — mirroring the threads
// backend, where undelivered messages die with the World object.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>

#include "util/common.h"

namespace ngsx::mpi::detail {

// ------------------------------------------------------------ error marshal

/// A rank failure reduced to what can cross a process boundary: the ngsx
/// error family plus the what() text. rethrow() reconstructs an exception
/// of the same family (docs/DISTRIBUTED.md "Failure semantics").
struct ErrorInfo {
  std::string kind;     // "IoError", "FormatError", "UsageError", "Error", …
  std::string message;  // what() of the original exception

  [[noreturn]] void rethrow() const;
};

/// Classifies the in-flight exception into an ErrorInfo.
ErrorInfo classify_current_exception();

/// Flat byte encoding of an ErrorInfo (used by the tcp ABORT frame payload
/// and the fork-runner error pipes): u32 kind length, kind bytes, message
/// bytes to the end.
std::string encode_error(const ErrorInfo& info);
ErrorInfo decode_error(std::string_view bytes);

// ----------------------------------------------------------------- mailbox

/// Per-rank incoming-message store: (epoch, source, tag) -> FIFO queue.
/// Delivery and matching are decoupled so the tcp backend's receiver
/// threads can demultiplex frames while the application thread blocks in
/// recv(). Thread-safe.
class Mailbox {
 public:
  void deliver(int src, int tag, uint32_t epoch, std::string payload);

  /// Blocks until a message with (src, tag) and the given epoch is
  /// available; throws AbortError once abort() has been called.
  std::string recv(int src, int tag, uint32_t epoch);

  bool probe(int src, int tag, uint32_t epoch) const;

  /// Wakes every blocked recv with AbortError.
  void abort();
  bool aborted() const;

  /// Drops every queued message with an epoch older than `epoch`
  /// (messages a previous run() sent but never received).
  void begin_epoch(uint32_t epoch);

 private:
  using Key = std::tuple<uint32_t, int, int>;  // epoch, src, tag

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<Key, std::deque<std::string>> queues_;
  bool aborted_ = false;
};

// ---------------------------------------------------------------- endpoint

/// One rank's view of a world: the object Comm talks to. Not thread-safe
/// for sends (each rank owns one application thread), but abort() may be
/// called from any thread (supervisors, receiver threads).
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  int rank() const { return rank_; }
  int size() const { return size_; }

  /// Eager send: enqueues/transmits without waiting for a matching recv.
  /// May block transiently for tcp socket buffer space but never for
  /// receiver-side matching.
  virtual void send(int dest, int tag, std::string_view payload) = 0;

  virtual std::string recv(int src, int tag) = 0;
  virtual bool probe(int src, int tag) = 0;

  /// Records this rank's failure and wakes every rank in the world
  /// (including remote ones, for tcp). Idempotent;
  /// the first recorded error wins.
  virtual void abort(const ErrorInfo& info) = 0;

  /// The first recorded failure this endpoint knows about (its own abort()
  /// or one received from a peer); nullopt when the world is healthy.
  virtual std::optional<ErrorInfo> abort_error() const = 0;

  /// Starts a new world epoch (launched worlds call this once per run()).
  virtual void begin_epoch(uint32_t epoch) { (void)epoch; }

  virtual const char* backend_name() const = 0;

 protected:
  Endpoint(int rank, int size) : rank_(rank), size_(size) {}

  void check_peer(int r) const {
    NGSX_CHECK_MSG(r >= 0 && r < size_,
                   "rank " + std::to_string(r) + " out of range [0, " +
                       std::to_string(size_) + ")");
  }

  int rank_;
  int size_;
};

// --------------------------------------------------------------------- env

/// Reads an environment variable as a positive integer; `def` when unset
/// or unparsable.
uint64_t env_u64(const char* name, uint64_t def);

}  // namespace ngsx::mpi::detail
