#include "serve/scheduler.h"

#include <algorithm>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ngsx::serve {

using std::chrono::steady_clock;

std::string_view reject_code(RejectReason reason) {
  switch (reason) {
    case RejectReason::kBackpressure: return "backpressure";
    case RejectReason::kDeadline: return "deadline";
    case RejectReason::kShutdown: return "shutting-down";
    case RejectReason::kBadRequest: return "bad-request";
    case RejectReason::kInternal: return "internal";
  }
  return "internal";
}

namespace {

ServeResult reject_result(RejectReason reason, std::string error) {
  ServeResult result;
  result.ok = false;
  result.reject = reason;
  result.error = std::move(error);
  return result;
}

bool overlaps(const core::Region& a, const core::Region& b) {
  return a.ref_id == b.ref_id && a.begin < b.end && b.begin < a.end;
}

}  // namespace

Scheduler::Scheduler(const core::ConversionSession& session, exec::Pool& pool,
                     SchedulerOptions options)
    : session_(session),
      options_(std::move(options)),
      queue_(std::max<size_t>(options_.max_queued, 1)),
      consumers_(pool) {
  const int n = options_.consumers > 0
                    ? std::min(options_.consumers, pool.size())
                    : pool.size();
  for (int i = 0; i < n; ++i) {
    consumers_.spawn([this] { consume(); });
  }
}

Scheduler::~Scheduler() { shutdown(); }

void Scheduler::shutdown() {
  std::call_once(shutdown_once_, [this] {
    queue_.close();     // senders now get kClosed -> kShutdown rejects
    consumers_.wait();  // consumers drain every accepted job, then exit
  });
}

bool Scheduler::same_group(const ServeRequest& a, const ServeRequest& b) {
  return a.format == b.format && a.mode == b.mode &&
         a.include_header == b.include_header &&
         a.region.ref_id == b.region.ref_id &&
         a.filter.min_mapq == b.filter.min_mapq &&
         a.filter.reverse_strand == b.filter.reverse_strand &&
         a.filter.include_duplicates == b.filter.include_duplicates &&
         a.filter.include_unmapped == b.filter.include_unmapped;
}

ServeResult Scheduler::submit(const ServeRequest& request) {
  return submit_async(request).get();
}

std::future<ServeResult> Scheduler::submit_async(const ServeRequest& request) {
  static obs::Counter& requests = obs::counter("serve.requests");
  static obs::Counter& coalesced = obs::counter("serve.coalesced");
  static obs::Counter& admission_rejects =
      obs::counter("serve.admission_rejects");
  static obs::Gauge& queue_depth = obs::gauge("serve.queue_depth");
  requests.add(1);

  auto waiter = std::make_unique<Waiter>();
  waiter->region = request.region;
  waiter->deadline = request.deadline;
  waiter->enqueued_at = steady_clock::now();
  std::future<ServeResult> future = waiter->promise.get_future();

  if (!core::is_text_target(request.format)) {
    waiter->promise.set_value(reject_result(
        RejectReason::kBadRequest,
        "target '" + std::string(core::target_format_name(request.format)) +
            "' is not servable (text targets only)"));
    return future;
  }

  std::lock_guard<std::mutex> lock(jobs_mu_);

  // Coalesce onto a queued job of the same group with an overlapping
  // interval: widen its region to the union, become one more waiter.
  for (const auto& job : queued_jobs_) {
    if (job->executing || !same_group(job->base, request) ||
        !overlaps(job->base.region, request.region)) {
      continue;
    }
    job->base.region.begin =
        std::min(job->base.region.begin, request.region.begin);
    job->base.region.end = std::max(job->base.region.end, request.region.end);
    waiter->coalesced = true;
    job->waiters.push_back(std::move(waiter));
    coalesced.add(1);
    return future;
  }

  auto job = std::make_shared<Job>();
  job->base = request;
  job->waiters.push_back(std::move(waiter));
  queued_jobs_.push_back(job);

  std::shared_ptr<Job> to_send = job;
  switch (queue_.try_send(to_send)) {
    case exec::ChannelStatus::kAccepted:
      queue_depth.add(1);
      return future;
    case exec::ChannelStatus::kFull:
      queued_jobs_.pop_back();
      admission_rejects.add(1);
      job->waiters.front()->promise.set_value(reject_result(
          RejectReason::kBackpressure, "admission queue full"));
      return future;
    case exec::ChannelStatus::kClosed:
      queued_jobs_.pop_back();
      job->waiters.front()->promise.set_value(
          reject_result(RejectReason::kShutdown, "service is shutting down"));
      return future;
  }
  NGSX_CHECK_MSG(false, "unreachable channel status");
}

void Scheduler::consume() {
  static obs::Gauge& queue_depth = obs::gauge("serve.queue_depth");
  while (auto job = queue_.pop()) {
    queue_depth.sub(1);
    execute(*job);
  }
}

void Scheduler::execute(const std::shared_ptr<Job>& job) {
  static obs::Counter& deadline_rejects =
      obs::counter("serve.deadline_rejects");
  static obs::Histogram& request_us = obs::histogram("serve.request_us");
  obs::Span span("serve", "execute");

  if (options_.on_execute) {
    options_.on_execute();
  }

  ServeRequest base;
  std::vector<std::unique_ptr<Waiter>> waiters;
  {
    // Freeze the job: no further coalescing once execution starts.
    std::lock_guard<std::mutex> lock(jobs_mu_);
    job->executing = true;
    queued_jobs_.erase(
        std::remove(queued_jobs_.begin(), queued_jobs_.end(), job),
        queued_jobs_.end());
    base = job->base;
    waiters = std::move(job->waiters);
  }

  // Expired waiters are rejected before any fetch/format work.
  std::vector<std::unique_ptr<Waiter>> live;
  const steady_clock::time_point now = steady_clock::now();
  for (auto& waiter : waiters) {
    if (waiter->deadline.has_value() && *waiter->deadline < now) {
      deadline_rejects.add(1);
      waiter->promise.set_value(reject_result(
          RejectReason::kDeadline, "deadline expired before execution"));
    } else {
      live.push_back(std::move(waiter));
    }
  }
  if (live.empty()) {
    return;
  }

  auto fail_all = [&](RejectReason reason, const std::string& message) {
    for (auto& waiter : live) {
      waiter->promise.set_value(reject_result(reason, message));
    }
  };

  try {
    // Plan the union once, fetch + format each matching record once.
    const std::vector<uint64_t> union_plan =
        session_.plan(base.region, base.mode, base.filter);
    const std::string prologue = core::target_prologue(
        base.format, session_.header(), base.include_header);
    std::vector<std::string> formatted(union_plan.size());
    std::vector<bool> emitted(union_plan.size());
    size_t slot = 0;
    session_.fetch(&union_plan, 0, union_plan.size(),
                   [&](sam::AlignmentRecord& rec) {
                     emitted[slot] = core::format_target_record(
                         base.format, rec, session_.header(), formatted[slot]);
                     ++slot;
                   });

    // Assemble every waiter's payload from the shared formatted records.
    // A waiter whose region is the whole union takes them all; a narrower
    // one re-plans (index-only, cheap) and takes its subsequence.
    std::unordered_map<uint64_t, size_t> slot_of;
    auto slot_lookup = [&](uint64_t index) {
      if (slot_of.empty() && !union_plan.empty()) {
        slot_of.reserve(union_plan.size());
        for (size_t i = 0; i < union_plan.size(); ++i) {
          slot_of.emplace(union_plan[i], i);
        }
      }
      auto it = slot_of.find(index);
      NGSX_CHECK_MSG(it != slot_of.end(),
                     "sub-region plan escaped the union plan");
      return it->second;
    };

    const steady_clock::time_point done = steady_clock::now();
    for (auto& waiter : live) {
      ServeResult result;
      result.ok = true;
      result.coalesced = waiter->coalesced;
      result.payload = prologue;
      const bool whole_union =
          waiter->region.begin == base.region.begin &&
          waiter->region.end == base.region.end;
      if (whole_union) {
        for (size_t i = 0; i < formatted.size(); ++i) {
          result.payload += formatted[i];
          result.records += emitted[i] ? 1 : 0;
        }
      } else {
        for (uint64_t index :
             session_.plan(waiter->region, base.mode, base.filter)) {
          const size_t slot = slot_lookup(index);
          result.payload += formatted[slot];
          result.records += emitted[slot] ? 1 : 0;
        }
      }
      request_us.record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              done - waiter->enqueued_at)
              .count()));
      waiter->promise.set_value(std::move(result));
    }
  } catch (const UsageError& e) {
    fail_all(RejectReason::kBadRequest, e.what());
  } catch (const std::exception& e) {
    fail_all(RejectReason::kInternal, e.what());
  }
}

}  // namespace ngsx::serve
