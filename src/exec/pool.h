// ngsx/exec/pool.h
//
// Thread pool: the shared execution engine behind the preprocessor,
// read-pair collation, the parallel BGZF reader, multi-threaded BGZF
// writers, and the serving scheduler (see docs/EXEC.md).
//
// Every client hands the pool coarse work — long-lived pipeline workers
// or one task per shard — so the pool is one mutex-guarded task queue
// and one condition variable. Tasks submitted from outside join the back
// of the queue; tasks spawned *from* a worker go to the front, so nested
// spawn/wait runs depth-first.
//
//   exec::Pool pool(8);
//   exec::TaskGroup g(pool);
//   g.spawn([&] { work(); });     // exceptions propagate to wait()
//   g.wait();
//
// Shutdown is graceful: the destructor runs every task already submitted
// (including tasks those tasks spawn) before joining the workers.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.h"

namespace ngsx::exec {

class TaskGroup;

/// Number of execution threads to use when the caller asks for auto-detect
/// (`hardware_concurrency`, clamped to >= 1 for restricted environments).
int hardware_threads();

class Pool {
 public:
  /// Spawns `threads` (>= 1) workers; they idle until work arrives.
  explicit Pool(int threads);

  /// Graceful shutdown: drains all submitted tasks, then joins.
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // Fixed before the workers start (they may call size() while the
  // constructor is still spawning the rest).
  int size() const { return n_threads_; }

  /// Fire-and-forget task. The task must not throw (there is no submitter
  /// to propagate to); a throwing detached task terminates the process.
  /// Prefer TaskGroup::spawn, which propagates exceptions to wait().
  void submit(std::function<void()> fn);

  /// Index of the calling thread within its pool, or -1 when the caller is
  /// not a pool worker. Lets clients keep per-worker scratch state (e.g.
  /// one BAMX reader per worker) without locking.
  static int current_worker_index();

  /// True if the calling thread is a worker of *this* pool.
  bool on_worker_thread() const;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;  // null for detached submits
  };

  void push(Task task);
  /// Runs one queued task; false when the queue is empty. Used by
  /// TaskGroup::wait() on a worker (help-first waiting, so nested spawns
  /// cannot deadlock the pool).
  bool try_run_one();
  Task pop_front();  // caller holds mu_ and the queue is non-empty
  void run_task(Task task);
  void worker_main(int index);

  int n_threads_ = 0;
  std::mutex mu_;
  std::condition_variable wake_cv_;  // idle workers sleep here
  std::deque<Task> queue_;           // guarded by mu_
  bool stop_ = false;                // guarded by mu_
  std::vector<std::thread> workers_;
};

/// A wait-able set of tasks on a pool. The first exception thrown by any
/// task in the group is captured and rethrown by wait(); remaining tasks
/// still run (they are assumed independent).
class TaskGroup {
 public:
  explicit TaskGroup(Pool& pool) : pool_(pool) {}

  /// Blocks until all spawned tasks finished. Must not be abandoned with
  /// tasks in flight; the destructor enforces a (non-throwing) wait.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void spawn(std::function<void()> fn);

  /// Waits for every spawned task, then rethrows the first captured
  /// exception, if any. When called on a worker thread of the pool it
  /// executes queued tasks while waiting instead of blocking the worker.
  void wait();

 private:
  friend class Pool;

  void task_done();
  void record_error(std::exception_ptr error);

  Pool& pool_;
  std::atomic<int64_t> outstanding_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::exception_ptr error_;  // first failure; guarded by mu_
};

}  // namespace ngsx::exec
