// Unit tests for the exec execution engine: pool semantics (submit/wait,
// exception propagation, nesting, queue order), bounded channel
// (backpressure, close/drain), the ordered pipeline (ticket order, error
// propagation) and the serial stage.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/channel.h"
#include "exec/pipeline.h"
#include "exec/pool.h"
#include "exec/serial.h"
#include "util/rng.h"

namespace ngsx::exec {
namespace {

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(hardware_threads(), 1); }

// ------------------------------------------------------------------ pool

TEST(Pool, RunsAllSpawnedTasks) {
  Pool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) {
    group.spawn([&count] { count.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(Pool, WaitIsReusable) {
  Pool pool(2);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  group.spawn([&count] { count.fetch_add(1); });
  group.wait();
  group.spawn([&count] { count.fetch_add(1); });
  group.spawn([&count] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(Pool, ExceptionPropagatesToWait) {
  Pool pool(3);
  std::atomic<int> survivors{0};
  TaskGroup group(pool);
  for (int i = 0; i < 20; ++i) {
    group.spawn([&survivors, i] {
      if (i == 7) {
        throw UsageError("task 7 failed");
      }
      survivors.fetch_add(1);
    });
  }
  EXPECT_THROW(group.wait(), UsageError);
  EXPECT_EQ(survivors.load(), 19);  // the other tasks still ran
}

TEST(Pool, NestedSpawnFromWorkerDoesNotDeadlock) {
  // A task that spawns subtasks and waits for them must help-execute
  // rather than block its worker — even on a single-thread pool.
  Pool pool(1);
  std::atomic<int> leaves{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 4; ++i) {
    outer.spawn([&pool, &leaves] {
      TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) {
        inner.spawn([&leaves] { leaves.fetch_add(1); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaves.load(), 32);
}

TEST(Pool, ExternalSubmitsRunInOrder) {
  // Tasks from outside the pool join the back of the queue: a 1-worker
  // pool runs them in submission order.
  Pool pool(1);
  std::mutex mu;
  std::vector<int> order;
  Channel<int> gate(1);
  TaskGroup group(pool);
  group.spawn([&gate] {
    gate.pop();  // hold the only worker until all tasks are queued
  });
  for (int i = 0; i < 5; ++i) {
    group.spawn([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  gate.push(1);
  group.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Pool, WorkerSpawnsRunDepthFirst) {
  // Tasks spawned on a worker go to the queue front, so a waiting worker
  // runs the newest spawn first and nested spawn/wait stays depth-first.
  Pool pool(1);
  std::vector<int> order;  // only the single worker touches it
  TaskGroup outer(pool);
  outer.spawn([&] {
    TaskGroup inner(pool);
    for (int i = 0; i < 4; ++i) {
      inner.spawn([&order, i] { order.push_back(i); });
    }
    inner.wait();
    order.push_back(-1);
  });
  outer.wait();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0, -1}));
}

TEST(Pool, WorkerIndexVisibleInsideTasks) {
  Pool pool(3);
  EXPECT_EQ(Pool::current_worker_index(), -1);
  EXPECT_FALSE(pool.on_worker_thread());
  TaskGroup group(pool);
  std::atomic<bool> in_range{true};
  for (int i = 0; i < 16; ++i) {
    group.spawn([&] {
      int idx = Pool::current_worker_index();
      if (idx < 0 || idx >= 3 || !pool.on_worker_thread()) {
        in_range.store(false);
      }
    });
  }
  group.wait();
  EXPECT_TRUE(in_range.load());
}

TEST(Pool, DestructorDrainsSubmittedTasks) {
  std::atomic<int> count{0};
  {
    Pool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    // No wait: the destructor must run everything already submitted.
  }
  EXPECT_EQ(count.load(), 50);
}

// --------------------------------------------------------------- channel

TEST(Channel, FifoAndTryVariants) {
  Channel<int> ch(3);
  int v1 = 1;
  int v2 = 2;
  int v3 = 3;
  int v4 = 4;
  EXPECT_TRUE(ch.try_push(v1));
  EXPECT_TRUE(ch.try_push(v2));
  EXPECT_TRUE(ch.try_push(v3));
  EXPECT_FALSE(ch.try_push(v4));  // full
  EXPECT_EQ(v4, 4);               // kept by the caller on failure
  EXPECT_EQ(ch.size(), 3u);
  EXPECT_EQ(ch.try_pop(), std::optional<int>(1));
  EXPECT_EQ(ch.try_pop(), std::optional<int>(2));
  EXPECT_TRUE(ch.try_push(v4));
  EXPECT_EQ(ch.try_pop(), std::optional<int>(3));
  EXPECT_EQ(ch.try_pop(), std::optional<int>(4));
  EXPECT_EQ(ch.try_pop(), std::nullopt);
}

TEST(Channel, CloseDrainsThenEnds) {
  Channel<int> ch(8);
  EXPECT_TRUE(ch.push(10));
  EXPECT_TRUE(ch.push(11));
  ch.close();
  EXPECT_FALSE(ch.push(12));  // push fails after close
  EXPECT_EQ(ch.pop(), std::optional<int>(10));
  EXPECT_EQ(ch.pop(), std::optional<int>(11));
  EXPECT_EQ(ch.pop(), std::nullopt);  // drained
  EXPECT_EQ(ch.pop(), std::nullopt);  // stays ended
}

TEST(Channel, PushBlocksUntilSpace) {
  Channel<int> ch(1);
  EXPECT_TRUE(ch.push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(ch.push(2));  // blocks until the consumer pops
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_pushed.load());  // still blocked on the full channel
  EXPECT_EQ(ch.pop(), std::optional<int>(1));
  EXPECT_EQ(ch.pop(), std::optional<int>(2));
  producer.join();
  EXPECT_TRUE(second_pushed.load());
}

TEST(Channel, CloseUnblocksProducer) {
  Channel<int> ch(1);
  EXPECT_TRUE(ch.push(1));
  std::thread producer([&] {
    EXPECT_FALSE(ch.push(2));  // woken by close, not by space
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.close();
  producer.join();
}

TEST(Channel, TypedSendDistinguishesFullFromClosed) {
  Channel<int> ch(1);
  int v = 7;
  EXPECT_EQ(ch.try_send(v), ChannelStatus::kAccepted);
  int w = 8;
  EXPECT_EQ(ch.try_send(w), ChannelStatus::kFull);
  EXPECT_EQ(w, 8);  // kept by the caller when not accepted
  ch.close();
  EXPECT_EQ(ch.try_send(w), ChannelStatus::kClosed);  // closed wins over full
  EXPECT_EQ(w, 8);
}

TEST(Channel, SendersAfterCloseGetTypedFailureReceiversDrain) {
  Channel<std::string> ch(8);
  std::string a = "a";
  std::string b = "b";
  EXPECT_EQ(ch.send(a), ChannelStatus::kAccepted);
  EXPECT_EQ(ch.send(b), ChannelStatus::kAccepted);
  ch.close();
  ch.close();  // idempotent
  std::string late = "late";
  EXPECT_EQ(ch.send(late), ChannelStatus::kClosed);
  EXPECT_EQ(late, "late");  // value not consumed on kClosed
  EXPECT_EQ(ch.try_send(late), ChannelStatus::kClosed);
  EXPECT_EQ(late, "late");
  // Receivers drain everything accepted before close, then end-of-stream.
  EXPECT_EQ(ch.pop(), std::optional<std::string>("a"));
  EXPECT_EQ(ch.pop(), std::optional<std::string>("b"));
  EXPECT_EQ(ch.pop(), std::nullopt);
}

TEST(Channel, CloseWakesBlockedTypedSenderWithKClosed) {
  Channel<int> ch(1);
  EXPECT_TRUE(ch.push(1));
  std::atomic<bool> got_closed{false};
  std::thread producer([&] {
    int v = 2;
    got_closed.store(ch.send(v) == ChannelStatus::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.close();
  producer.join();
  EXPECT_TRUE(got_closed.load());
  // The queued item from before close still drains.
  EXPECT_EQ(ch.pop(), std::optional<int>(1));
  EXPECT_EQ(ch.pop(), std::nullopt);
}

TEST(Channel, ConcurrentProducersDrainCompletelyAfterClose) {
  // Many producers racing close(): every value that was *accepted* must be
  // delivered to consumers exactly once; every rejected send must report
  // kClosed and leave the value intact.
  Channel<int> ch(4);
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < 64; ++i) {
        int v = t * 1000 + i;
        ChannelStatus s = ch.send(v);
        if (s == ChannelStatus::kAccepted) {
          accepted.fetch_add(1);
        } else {
          EXPECT_EQ(s, ChannelStatus::kClosed);
          EXPECT_EQ(v, t * 1000 + i);
          rejected.fetch_add(1);
        }
      }
    });
  }
  std::atomic<int> received{0};
  std::thread consumer([&] {
    while (ch.pop().has_value()) {
      received.fetch_add(1);
      if (received.load() == 100) {
        ch.close();  // close mid-stream with producers still sending
      }
    }
  });
  for (auto& p : producers) {
    p.join();
  }
  consumer.join();
  EXPECT_EQ(accepted.load() + rejected.load(), 4 * 64);
  EXPECT_EQ(received.load(), accepted.load());  // drained, nothing lost
}

// -------------------------------------------------------------- pipeline

TEST(OrderedPipeline, CommitsInTicketOrder) {
  Pool pool(4);
  const int n = 200;
  int next_item = 0;
  std::vector<int> committed;
  Rng rng(11);
  ordered_pipeline<int, int>(
      pool,
      [&](int& item) {
        if (next_item >= n) {
          return false;
        }
        item = next_item++;
        return true;
      },
      [&rng](int&& item, uint64_t) {
        // Jitter completion order; commits must still be sequential.
        if (item % 7 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return item * 3;
      },
      [&](int&& out, uint64_t ticket) {
        EXPECT_EQ(committed.size(), ticket);
        committed.push_back(out);
      });
  ASSERT_EQ(committed.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(committed[static_cast<size_t>(i)], i * 3);
  }
}

TEST(OrderedPipeline, TransformErrorRethrown) {
  Pool pool(3);
  int next_item = 0;
  std::atomic<int> committed{0};
  EXPECT_THROW(
      (ordered_pipeline<int, int>(
          pool,
          [&](int& item) {
            if (next_item >= 100) {
              return false;
            }
            item = next_item++;
            return true;
          },
          [](int&& item, uint64_t) {
            if (item == 31) {
              throw IoError("disk on fire");
            }
            return item;
          },
          [&](int&&, uint64_t) { committed.fetch_add(1); })),
      IoError);
  EXPECT_LE(committed.load(), 31);
}

TEST(OrderedPipeline, SinkErrorRethrown) {
  Pool pool(2);
  int next_item = 0;
  EXPECT_THROW((ordered_pipeline<int, int>(
                   pool,
                   [&](int& item) {
                     if (next_item >= 50) {
                       return false;
                     }
                     item = next_item++;
                     return true;
                   },
                   [](int&& item, uint64_t) { return item; },
                   [](int&&, uint64_t ticket) {
                     if (ticket == 10) {
                       throw IoError("write failed");
                     }
                   })),
               IoError);
}

TEST(Pipeline, PushFinishPreservesOrder) {
  Pool pool(4);
  std::vector<int> committed;
  {
    Pipeline<int, int> pipe(
        pool, [](int&& v) { return v + 1000; },
        [&](int&& v) { committed.push_back(v); });
    for (int i = 0; i < 300; ++i) {
      pipe.push(i);
    }
    pipe.finish();
  }
  ASSERT_EQ(committed.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(committed[static_cast<size_t>(i)], i + 1000);
  }
}

TEST(Pipeline, TransformErrorSurfacesToProducer) {
  Pool pool(2);
  PipelineOptions opt;
  opt.capacity = 2;  // small channel so push() hits the failure quickly
  Pipeline<int, int> pipe(
      pool,
      [](int&& v) {
        if (v == 5) {
          throw FormatError("item 5 is cursed");
        }
        return v;
      },
      [](int&&) {}, opt);
  EXPECT_THROW(
      {
        for (int i = 0; i < 10000; ++i) {
          pipe.push(i);
        }
        pipe.finish();
      },
      FormatError);
}

TEST(Pipeline, FinishIsIdempotent) {
  Pool pool(2);
  int sum = 0;
  Pipeline<int, int> pipe(pool, [](int&& v) { return v; },
                          [&](int&& v) { sum += v; });
  pipe.push(1);
  pipe.push(2);
  pipe.finish();
  pipe.finish();
  EXPECT_EQ(sum, 3);
  EXPECT_THROW(pipe.push(3), UsageError);
}

// ----------------------------------------------------------- SerialStage

TEST(SerialStage, RunsJobsInSubmissionOrder) {
  std::vector<int> order;
  {
    SerialStage stage(4);
    for (int i = 0; i < 100; ++i) {
      stage.submit([&order, i] { order.push_back(i); });
    }
    stage.finish();
  }
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SerialStage, FinishDrainsEverythingAccepted) {
  // Capacity 1 forces submit() to block and hand jobs over one at a time;
  // finish() must still run them all.
  std::atomic<int> ran{0};
  SerialStage stage(1);
  for (int i = 0; i < 50; ++i) {
    stage.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran.fetch_add(1);
    });
  }
  stage.finish();
  EXPECT_EQ(ran.load(), 50);
}

TEST(SerialStage, ErrorPoisonsAndRethrows) {
  SerialStage stage(2);
  std::atomic<int> ran_after{0};
  stage.submit([] { throw FormatError("stage boom"); });
  // Later jobs are discarded; eventually submit() starts rethrowing. Keep
  // submitting until the failure surfaces (the worker races the producer).
  bool threw = false;
  try {
    for (int i = 0; i < 10000 && !threw; ++i) {
      stage.submit([&ran_after] { ran_after.fetch_add(1); });
    }
  } catch (const FormatError& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("stage boom"), std::string::npos);
  }
  if (!threw) {
    EXPECT_THROW(stage.finish(), FormatError);
  } else {
    stage.finish();  // error already consumed by the submit() rethrow
  }
}

TEST(SerialStage, FinishIsIdempotentAndSubmitAfterFinishThrows) {
  SerialStage stage(2);
  int ran = 0;
  stage.submit([&ran] { ++ran; });
  stage.finish();
  stage.finish();
  EXPECT_EQ(ran, 1);
  EXPECT_THROW(stage.submit([] {}), UsageError);
}

}  // namespace
}  // namespace ngsx::exec
