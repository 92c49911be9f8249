// ngsx/exec/pipeline.h
//
// Staged pipeline on top of exec::Pool: a serial source, N parallel
// transform workers, and a sink that commits results strictly in source
// order via sequence tickets. This is the shape of every ordered parallel
// path in ngsx — BGZF block decode and compression (blocks must land in
// file order), preprocessing and collation (records must keep input
// order) — factored out once.
//
// Two forms:
//
//   ordered_pipeline(pool, source, transform, sink, opt)
//     Synchronous: the calling thread is the committer. `source` is called
//     serially (it may block, e.g. on a Channel); `transform` runs on the
//     pool, many chunks in flight; `sink` sees results in ticket order.
//     The in-flight window is bounded (opt.window), so a slow sink
//     backpressures the transforms and the source.
//
//   Pipeline<In, Out> p(pool, transform, sink, opt);
//   p.push(item); ...; p.finish();
//     Push-style wrapper: a bounded input channel plus an internal driver
//     thread running ordered_pipeline. push() blocks when the channel is
//     full (producer backpressure); the first transform/sink error closes
//     the pipeline and is rethrown from push()/finish().
//
// Exceptions: the first error from transform or sink wins; later results
// are discarded, workers stop claiming tickets, and the error is rethrown
// to the committer (ordered_pipeline) or the producer (Pipeline).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "exec/channel.h"
#include "exec/pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/common.h"

namespace ngsx::exec {

// Pipeline observability (docs/OBSERVABILITY.md, layer "exec"). Shared by
// every ordered_pipeline instantiation; hooks are gated on
// obs::metrics_enabled() so the disarmed cost is one relaxed load.
struct PipelineMetrics {
  obs::Counter& tickets = obs::counter("exec.pipeline.tickets");
  obs::Histogram& transform_us = obs::histogram("exec.pipeline.transform_us");
  obs::Histogram& commit_wait_us =
      obs::histogram("exec.pipeline.commit_wait_us");
  obs::Gauge& reorder_depth = obs::gauge("exec.pipeline.reorder_depth");
};

inline PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics m;
  return m;
}

struct PipelineOptions {
  /// Parallel transform workers; 0 means pool.size().
  int workers = 0;
  /// Max items past the last committed one being worked on or buffered
  /// (plus at most one in-flight item per worker); 0 means 2*workers + 4.
  /// This bounds reorder-buffer memory when one slow item holds up the
  /// ordered commit.
  size_t window = 0;
  /// Pipeline<> only: input channel capacity; 0 means window.
  size_t capacity = 0;
  /// Optional cooperative cancellation (ordered_pipeline): once it reads
  /// true, no further source items are claimed — items already in flight
  /// still transform and commit, then the pipeline returns normally. The
  /// flag alone never unblocks a sink stalled on downstream backpressure;
  /// cancelling callers must also release whatever the sink blocks on
  /// (e.g. close the output channel, as the parallel BGZF reader does on
  /// seek invalidation).
  const std::atomic<bool>* cancel = nullptr;
};

template <typename In, typename Out>
void ordered_pipeline(Pool& pool,
                      const std::function<bool(In&)>& source,
                      const std::function<Out(In&&, uint64_t)>& transform,
                      const std::function<void(Out&&, uint64_t)>& sink,
                      PipelineOptions opt = {}) {
  const int workers =
      opt.workers > 0 ? std::min(opt.workers, pool.size()) : pool.size();
  const uint64_t window =
      opt.window > 0 ? opt.window : 2 * static_cast<uint64_t>(workers) + 4;

  struct State {
    std::mutex mu;                  // reorder buffer + error + counters
    std::condition_variable commit_cv;  // committer waits for next ticket
    std::condition_variable window_cv;  // workers wait for window room
    std::map<uint64_t, Out> ready;  // ticket -> transformed result
    uint64_t commit_next = 0;       // next ticket the sink will take
    int active_workers = 0;
    std::exception_ptr error;

    std::mutex source_mu;           // serializes source() calls
    bool source_done = false;
    uint64_t next_ticket = 0;
  } st;
  st.active_workers = workers;
  std::atomic<uint64_t> issued{0};

  TaskGroup group(pool);
  for (int w = 0; w < workers; ++w) {
    group.spawn([&] {
      while (true) {
        // Window admission: don't run further ahead of the committer than
        // `window` tickets. Tickets are claimed in order, so the committer's
        // ticket is always held by a running worker — no deadlock.
        {
          std::unique_lock<std::mutex> lock(st.mu);
          st.window_cv.wait(lock, [&] {
            return st.error != nullptr ||
                   issued.load(std::memory_order_relaxed) - st.commit_next <
                       window;
          });
          if (st.error != nullptr) {
            break;
          }
        }
        In item;
        uint64_t ticket;
        {
          std::lock_guard<std::mutex> lock(st.source_mu);
          if (st.source_done) {
            break;
          }
          if (opt.cancel != nullptr &&
              opt.cancel->load(std::memory_order_relaxed)) {
            st.source_done = true;  // stop claiming; in-flight items commit
            break;
          }
          bool have = false;
          try {
            have = source(item);
          } catch (...) {
            st.source_done = true;
            std::lock_guard<std::mutex> elock(st.mu);
            if (st.error == nullptr) {
              st.error = std::current_exception();
            }
            break;
          }
          if (!have) {
            st.source_done = true;
            break;
          }
          ticket = st.next_ticket++;
          issued.fetch_add(1, std::memory_order_relaxed);
        }
        try {
          obs::Span span("exec", "pipeline.transform");
          const bool recording = obs::metrics_enabled();
          const uint64_t start_ns =
              recording ? obs::detail::monotonic_ns() : 0;
          Out out = transform(std::move(item), ticket);
          if (recording) {
            PipelineMetrics& m = pipeline_metrics();
            m.tickets.add(1);
            m.transform_us.record(
                (obs::detail::monotonic_ns() - start_ns) / 1000);
          }
          std::lock_guard<std::mutex> lock(st.mu);
          if (st.error != nullptr) {
            break;  // poisoned; discard
          }
          st.ready.emplace(ticket, std::move(out));
          if (recording) {
            pipeline_metrics().reorder_depth.add(1);
          }
          if (ticket == st.commit_next) {
            st.commit_cv.notify_one();
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(st.mu);
          if (st.error == nullptr) {
            st.error = std::current_exception();
          }
          break;
        }
      }
      // Worker exit: wake everyone so termination conditions re-evaluate.
      std::lock_guard<std::mutex> lock(st.mu);
      --st.active_workers;
      st.commit_cv.notify_all();
      st.window_cv.notify_all();
    });
  }

  // The calling thread is the committer: drain tickets in order.
  std::exception_ptr sink_error;
  while (true) {
    Out out;
    {
      std::unique_lock<std::mutex> lock(st.mu);
      const bool recording = obs::metrics_enabled();
      const uint64_t wait_start_ns =
          recording ? obs::detail::monotonic_ns() : 0;
      st.commit_cv.wait(lock, [&] {
        return st.error != nullptr ||
               st.ready.count(st.commit_next) != 0 ||
               (st.active_workers == 0 && st.ready.empty());
      });
      if (recording) {
        // Commit stall: how long the in-order committer sat waiting for
        // the next ticket to finish transforming.
        pipeline_metrics().commit_wait_us.record(
            (obs::detail::monotonic_ns() - wait_start_ns) / 1000);
      }
      if (st.error != nullptr) {
        break;
      }
      auto it = st.ready.find(st.commit_next);
      if (it == st.ready.end()) {
        break;  // all workers exited, everything committed
      }
      out = std::move(it->second);
      st.ready.erase(it);
      if (recording) {
        pipeline_metrics().reorder_depth.sub(1);
      }
      ++st.commit_next;
      st.window_cv.notify_all();
    }
    try {
      obs::Span span("exec", "pipeline.commit");
      sink(std::move(out), st.commit_next - 1);
    } catch (...) {
      sink_error = std::current_exception();
      std::lock_guard<std::mutex> lock(st.mu);
      if (st.error == nullptr) {
        st.error = sink_error;
      }
      st.window_cv.notify_all();
      break;
    }
  }

  group.wait();  // workers capture errors into st.error; never throws here
  if (st.error != nullptr) {
    std::rethrow_exception(st.error);
  }
}

/// Push-style ordered pipeline (see file comment). In/Out must be movable.
template <typename In, typename Out>
class Pipeline {
 public:
  Pipeline(Pool& pool, std::function<Out(In&&)> transform,
           std::function<void(Out&&)> sink, PipelineOptions opt = {})
      : transform_(std::move(transform)), sink_(std::move(sink)),
        input_(resolve_capacity(pool, opt)) {
    driver_ = std::thread([this, &pool, opt] { drive(pool, opt); });
  }

  ~Pipeline() {
    try {
      finish();
    } catch (...) {
      // Errors were already observable via push()/finish(); destructors
      // must not throw.
    }
  }

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Enqueues one item, blocking while the channel is full. Rethrows the
  /// pipeline's first error if it has failed.
  void push(In item) {
    if (!input_.push(std::move(item))) {
      rethrow_failure();
      throw UsageError("push on a finished pipeline");
    }
  }

  /// Closes the input, drains every stage, joins the driver, and rethrows
  /// the first error, if any. Idempotent.
  void finish() {
    input_.close();
    if (driver_.joinable()) {
      driver_.join();
    }
    rethrow_failure();
  }

 private:
  static size_t resolve_capacity(Pool& pool, const PipelineOptions& opt) {
    if (opt.capacity > 0) {
      return opt.capacity;
    }
    if (opt.window > 0) {
      return opt.window;
    }
    int workers = opt.workers > 0 ? std::min(opt.workers, pool.size())
                                  : pool.size();
    return 2 * static_cast<size_t>(workers) + 4;
  }

  void drive(Pool& pool, PipelineOptions opt) {
    std::exception_ptr error;
    try {
      ordered_pipeline<In, Out>(
          pool,
          [this](In& item) {
            std::optional<In> v = input_.pop();
            if (!v.has_value()) {
              return false;
            }
            item = std::move(*v);
            return true;
          },
          [this](In&& item, uint64_t) { return transform_(std::move(item)); },
          [this](Out&& out, uint64_t) { sink_(std::move(out)); }, opt);
    } catch (...) {
      error = std::current_exception();
    }
    // Publish outside the catch block: the driver's own handler reference
    // to the in-flight exception must be released before the mutex
    // hand-off, so every access the driver made to the exception object
    // happens-before the producer thread rethrowing it. (Otherwise the
    // driver can end up dropping the last reference — running the
    // exception's destructor — concurrently with the producer reading
    // what(), with only libstdc++-internal refcounting in between.)
    if (error) {
      {
        std::lock_guard<std::mutex> lock(error_mu_);
        error_ = std::move(error);
      }
      // Unblock producers: their next push() fails and rethrows.
      input_.close();
    }
  }

  void rethrow_failure() {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (error_) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

  std::function<Out(In&&)> transform_;
  std::function<void(Out&&)> sink_;
  Channel<In> input_;
  std::thread driver_;
  std::mutex error_mu_;
  std::exception_ptr error_;
};

}  // namespace ngsx::exec
