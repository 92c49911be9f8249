// ngsx/serve/scheduler.h
//
// Request scheduler of the serving daemon: many concurrent region-convert
// requests multiplexed onto one shared exec::Pool through a bounded
// exec::Channel.
//
//   request threads ──try_send──▶ Channel<Job> ──pop──▶ consumer loops
//                                 (admission)           (on the pool)
//
// * Admission control: the channel's capacity bounds queued jobs. A full
//   queue rejects immediately with the typed RejectReason::kBackpressure
//   (Channel::try_send's ChannelStatus::kFull) instead of blocking the
//   connection thread — callers see backpressure, not latency.
// * Coalescing: a request whose (format, mode, filter, header, reference)
//   group matches a *still queued* job with an overlapping interval rides
//   that job instead of enqueueing: the job's region widens to the union
//   and the newcomer becomes one more waiter. At execution the union's
//   records are fetched and formatted once; each waiter's payload is then
//   assembled from its own (cheap, index-only) plan — a sub-region's plan
//   is a subsequence of the union's, so every waiter's bytes are identical
//   to what a dedicated conversion would have produced.
// * Deadlines: checked when the job reaches a consumer; an expired waiter
//   is rejected with kDeadline without paying for fetch+format.
// * Shutdown: close() on the channel. Senders-after-close get the typed
//   kClosed and map to kShutdown rejects; consumers drain every accepted
//   job before exiting, so accepted work is never dropped (the channel's
//   close/drain contract).
//
// Metrics (docs/OBSERVABILITY.md, layer "serve"): serve.requests,
// serve.coalesced, serve.admission_rejects, serve.deadline_rejects,
// serve.queue_depth, serve.request_us.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/session.h"
#include "exec/channel.h"
#include "exec/pool.h"

namespace ngsx::serve {

/// Why a request did not produce a payload.
enum class RejectReason {
  kBackpressure,  // admission queue full — retry later
  kDeadline,      // the request's deadline passed before execution
  kShutdown,      // the scheduler is draining
  kBadRequest,    // unservable as asked (e.g. filters without a BAIXv2)
  kInternal,      // unexpected failure during execution
};

/// Wire code for a reject ("backpressure", "deadline", ...).
std::string_view reject_code(RejectReason reason);

/// One region-convert request, fully resolved against the session header.
struct ServeRequest {
  core::Region region;
  core::TargetFormat format = core::TargetFormat::kSam;
  baix2::RegionMode mode = baix2::RegionMode::kStartWithin;
  baix2::Filter filter;
  bool include_header = true;
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

struct ServeResult {
  bool ok = false;
  RejectReason reject = RejectReason::kInternal;  // valid when !ok
  std::string error;                              // valid when !ok
  std::string payload;                            // valid when ok
  uint64_t records = 0;    // records emitted into payload
  bool coalesced = false;  // rode another request's execution
};

struct SchedulerOptions {
  size_t max_queued = 64;  // admission bound (channel capacity)
  int consumers = 0;       // pool consumer loops; 0 => pool.size()
  /// Test seam: runs at the start of every job execution, before the
  /// deadline check. A latch here freezes consumers so tests can build
  /// exact queue states (full queue, expired deadline, coalesced set).
  std::function<void()> on_execute;
};

class Scheduler {
 public:
  /// Spawns the consumer loops on `pool`. The session must outlive the
  /// scheduler.
  Scheduler(const core::ConversionSession& session, exec::Pool& pool,
            SchedulerOptions options);

  /// Drains and joins (shutdown()).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Non-blocking enqueue; the future resolves when the request executes
  /// (or is rejected). Immediate rejects (admission, shutdown, bad
  /// request) resolve the future before returning.
  std::future<ServeResult> submit_async(const ServeRequest& request);

  /// Blocking convenience: submit_async().get().
  ServeResult submit(const ServeRequest& request);

  /// Closes the queue (new submits get kShutdown), drains every accepted
  /// job, and joins the consumers. Idempotent.
  void shutdown();

  /// Queued jobs right now (test/introspection convenience).
  size_t queued() const { return queue_.size(); }

 private:
  struct Waiter {
    core::Region region;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::chrono::steady_clock::time_point enqueued_at;
    bool coalesced = false;
    std::promise<ServeResult> promise;
  };

  struct Job {
    /// The union request: base.region widens as waiters coalesce onto the
    /// job; every other field is the group key all waiters share.
    ServeRequest base;
    std::vector<std::unique_ptr<Waiter>> waiters;
    bool executing = false;  // set by the consumer; bars further coalescing
  };

  /// Same coalescing group: identical format/mode/filter/header over the
  /// same reference.
  static bool same_group(const ServeRequest& a, const ServeRequest& b);
  void consume();
  void execute(const std::shared_ptr<Job>& job);

  const core::ConversionSession& session_;
  SchedulerOptions options_;
  exec::Channel<std::shared_ptr<Job>> queue_;
  std::mutex jobs_mu_;
  std::vector<std::shared_ptr<Job>> queued_jobs_;  // coalescing candidates
  exec::TaskGroup consumers_;
  std::once_flag shutdown_once_;
};

}  // namespace ngsx::serve
