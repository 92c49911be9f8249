#include "exec/pool.h"

#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ngsx::exec {

namespace {

// Worker identity of the calling thread: which pool (if any) and which
// index within it. Used to push spawns to the queue front and to let
// TaskGroup::wait() help-execute instead of blocking a worker.
thread_local Pool* tl_pool = nullptr;
thread_local int tl_index = -1;

// Pool observability (docs/OBSERVABILITY.md, layer "exec"). Handles are
// registered lazily on the first armed hook; every hook is gated on
// obs::metrics_enabled() so the disarmed cost is one relaxed load.
struct PoolMetrics {
  obs::Counter& tasks = obs::counter("exec.pool.tasks");
  obs::Counter& parks = obs::counter("exec.pool.parks");
  obs::Gauge& queue_depth = obs::gauge("exec.pool.queue_depth");
  obs::Histogram& task_us = obs::histogram("exec.pool.task_us");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace

int hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// ----------------------------------------------------------------- Pool

Pool::Pool(int threads) : n_threads_(threads) {
  NGSX_CHECK_MSG(threads >= 1, "pool needs at least one worker");
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
  // Graceful shutdown drains everything; nothing should remain.
  NGSX_CHECK_MSG(queue_.empty(), "pool destroyed with tasks pending");
}

int Pool::current_worker_index() { return tl_index; }

bool Pool::on_worker_thread() const { return tl_pool == this; }

void Pool::submit(std::function<void()> fn) {
  push(Task{std::move(fn), nullptr});
}

void Pool::push(Task task) {
  if (obs::metrics_enabled()) {
    pool_metrics().queue_depth.add(1);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tl_pool == this) {
      queue_.push_front(std::move(task));  // nested spawn: depth-first
    } else {
      queue_.push_back(std::move(task));
    }
  }
  wake_cv_.notify_one();
}

Pool::Task Pool::pop_front() {
  Task task = std::move(queue_.front());
  queue_.pop_front();
  return task;
}

bool Pool::try_run_one() {
  Task task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) {
      return false;
    }
    task = pop_front();
  }
  run_task(std::move(task));
  return true;
}

void Pool::run_task(Task task) {
  uint64_t start_ns = 0;
  const bool recording = obs::metrics_enabled();
  if (recording) {
    PoolMetrics& m = pool_metrics();
    m.tasks.add(1);
    m.queue_depth.sub(1);
    start_ns = obs::detail::monotonic_ns();
  }
  if (task.group != nullptr) {
    try {
      task.fn();
    } catch (...) {
      task.group->record_error(std::current_exception());
    }
    task.group->task_done();
  } else {
    try {
      task.fn();
    } catch (...) {
      // No submitter to propagate to; mirror std::thread semantics.
      std::fprintf(stderr,
                   "ngsx::exec: unhandled exception in detached task\n");
      std::terminate();
    }
  }
  if (recording) {
    pool_metrics().task_us.record(
        (obs::detail::monotonic_ns() - start_ns) / 1000);
  }
}

void Pool::worker_main(int index) {
  tl_pool = this;
  tl_index = index;
  obs::set_thread_name("exec.worker");
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (!queue_.empty()) {
      Task task = pop_front();
      lock.unlock();
      run_task(std::move(task));  // destroys the closure outside the lock
      lock.lock();
      continue;
    }
    // Every push happens under mu_, so a push cannot slip in between
    // this check and the wait: sleeping without a timeout is safe.
    if (stop_) {
      return;
    }
    if (obs::metrics_enabled()) {
      pool_metrics().parks.add(1);
    }
    wake_cv_.wait(lock);
  }
}

// ------------------------------------------------------------ TaskGroup

TaskGroup::~TaskGroup() {
  // Spawned tasks capture `this`; they must finish before we go away.
  // wait() was normally already called; errors surface there, not here.
  if (outstanding_.load(std::memory_order_acquire) != 0) {
    try {
      wait();
    } catch (...) {
      // Destructor must not throw; wait() callers get the error instead.
    }
  }
}

void TaskGroup::spawn(std::function<void()> fn) {
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  pool_.push(Pool::Task{std::move(fn), this});
}

void TaskGroup::task_done() {
  // Decrement and notify under the lock: a waiter that observes zero must
  // not be able to return (and destroy this group) before the notify has
  // happened — wait()'s trailing mu_ acquisition orders it after us.
  std::lock_guard<std::mutex> lock(mu_);
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.notify_all();
  }
}

void TaskGroup::record_error(std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_) {
    error_ = std::move(error);
  }
}

void TaskGroup::wait() {
  if (pool_.on_worker_thread()) {
    // Help-first: run queued tasks (any task, not just ours) while our
    // spawns are in flight, so nested groups never starve the pool.
    while (outstanding_.load(std::memory_order_acquire) != 0) {
      if (!pool_.try_run_one()) {
        std::this_thread::yield();
      }
    }
  } else {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    error = error_;
    error_ = nullptr;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace ngsx::exec
