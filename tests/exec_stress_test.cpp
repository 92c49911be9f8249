// Concurrency stress tests for the exec engine, designed to run under
// ThreadSanitizer (the CI tsan job builds this binary with
// -fsanitize=thread). Each test hammers one primitive from many threads
// and checks a conservation property: no item lost, none duplicated,
// ordered commits stay ordered.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/channel.h"
#include "exec/pipeline.h"
#include "exec/pool.h"
#include "util/rng.h"

namespace ngsx::exec {
namespace {

TEST(ChannelStress, ManyProducersManyConsumers) {
  // 4 producers push disjoint value ranges through a small channel into
  // 4 consumers; every value must arrive exactly once.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  Channel<int> ch(8);
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&ch, &seen] {
      while (auto v = ch.pop()) {
        seen[static_cast<size_t>(*v)].fetch_add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  ch.close();
  for (auto& t : consumers) {
    t.join();
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "value " << i;
  }
}

TEST(ChannelStress, MixedBlockingAndTryOps) {
  Channel<uint64_t> ch(4);
  std::atomic<uint64_t> pushed_sum{0};
  std::atomic<uint64_t> popped_sum{0};
  std::atomic<uint64_t> popped_count{0};
  constexpr int kThreads = 3;
  constexpr uint64_t kPerThread = 3000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kThreads; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(static_cast<uint64_t>(p) + 1);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t v = rng.below(1000) + 1;
        if (rng.chance(0.5)) {
          ASSERT_TRUE(ch.push(v));
        } else {
          while (!ch.try_push(v)) {
            std::this_thread::yield();
          }
        }
        pushed_sum.fetch_add(v);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kThreads; ++c) {
    consumers.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(c) + 100);
      while (true) {
        std::optional<uint64_t> v;
        if (rng.chance(0.5)) {
          v = ch.pop();
          if (!v.has_value()) {
            return;  // closed and drained
          }
        } else {
          v = ch.try_pop();
          if (!v.has_value()) {
            if (ch.closed() && !(v = ch.pop()).has_value()) {
              return;
            }
            if (!v.has_value()) {
              continue;
            }
          }
        }
        popped_sum.fetch_add(*v);
        popped_count.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  ch.close();
  for (auto& t : consumers) {
    t.join();
  }
  EXPECT_EQ(popped_count.load(), kThreads * kPerThread);
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
}

TEST(PoolStress, RecursiveSpawnsConserveWork) {
  // Tasks recursively split like a divide-and-conquer sum; the pool must
  // neither lose nor duplicate leaves across nested help-first waits.
  Pool pool(4);
  std::atomic<uint64_t> sum{0};
  std::function<void(uint64_t, uint64_t)> split =
      [&](uint64_t lo, uint64_t hi) {
        if (hi - lo <= 64) {
          uint64_t local = 0;
          for (uint64_t i = lo; i < hi; ++i) {
            local += i;
          }
          sum.fetch_add(local);
          return;
        }
        uint64_t mid = lo + (hi - lo) / 2;
        TaskGroup group(pool);
        group.spawn([&split, lo, mid] { split(lo, mid); });
        group.spawn([&split, mid, hi] { split(mid, hi); });
        group.wait();
      };
  constexpr uint64_t kN = 100000;
  TaskGroup root(pool);
  root.spawn([&split] { split(0, kN); });
  root.wait();
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(PoolStress, ConcurrentSubmittersLoseNoWakeup) {
  // Outside threads feed bursts of tiny tasks with pauses in between, so
  // workers keep going to sleep and being woken. A lost wakeup would hang
  // a wait(); a lost or duplicated task breaks the sum.
  Pool pool(3);
  constexpr int kSubmitters = 4;
  constexpr int kBursts = 50;
  constexpr int kPerBurst = 40;
  std::atomic<uint64_t> ran{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&pool, &ran, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int b = 0; b < kBursts; ++b) {
        TaskGroup group(pool);
        for (int i = 0; i < kPerBurst; ++i) {
          group.spawn([&ran] { ran.fetch_add(1); });
        }
        group.wait();
        std::this_thread::sleep_for(std::chrono::microseconds(rng.below(300)));
      }
    });
  }
  for (auto& t : submitters) {
    t.join();
  }
  EXPECT_EQ(ran.load(), uint64_t{kSubmitters} * kBursts * kPerBurst);
}

TEST(PipelineStress, OrderPreservedUnderJitter) {
  Pool pool(4);
  for (int round = 0; round < 5; ++round) {
    constexpr int kItems = 1000;
    std::vector<uint64_t> committed;
    committed.reserve(kItems);
    PipelineOptions opt;
    opt.capacity = 8;
    opt.window = 16;
    Pipeline<uint64_t, uint64_t> pipe(
        pool,
        [round](uint64_t&& v) {
          // Data-dependent busy work so completion order is scrambled.
          Rng rng(v * 31 + static_cast<uint64_t>(round));
          uint64_t spin = rng.below(400);
          uint64_t acc = v;
          for (uint64_t i = 0; i < spin; ++i) {
            acc = acc * 6364136223846793005ull + 1442695040888963407ull;
          }
          return v * 2 + (acc & 0);  // keep the busy work observable
        },
        [&committed](uint64_t&& v) { committed.push_back(v); }, opt);
    for (uint64_t i = 0; i < kItems; ++i) {
      pipe.push(i);
    }
    pipe.finish();
    ASSERT_EQ(committed.size(), static_cast<size_t>(kItems));
    for (uint64_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(committed[static_cast<size_t>(i)], i * 2) << "round " << round;
    }
  }
}

TEST(PipelineStress, ManyProducersOneOrderedSink) {
  // Multiple producer threads share one pipeline; per-producer FIFO order
  // is not defined, but nothing may be lost or duplicated.
  Pool pool(4);
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 1500;
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  PipelineOptions opt;
  opt.capacity = 4;
  Pipeline<uint64_t, uint64_t> pipe(
      pool, [](uint64_t&& v) { return v; },
      [&seen](uint64_t&& v) { seen[static_cast<size_t>(v)].fetch_add(1); },
      opt);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pipe, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        pipe.push(static_cast<uint64_t>(p) * kPerProducer + i);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  pipe.finish();
  for (size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "item " << i;
  }
}

// ---------------------------------------------------------------------------
// Error propagation: a worker that throws must surface its error to the
// caller without deadlocking the remaining workers — the contract the
// fault-injection layer (docs/ROBUSTNESS.md) leans on end-to-end.
// ---------------------------------------------------------------------------

TEST(PipelineErrors, TransformErrorPropagatesWithoutDeadlock) {
  Pool pool(4);
  constexpr uint64_t kItems = 2000;
  constexpr uint64_t kPoison = 700;
  for (int round = 0; round < 5; ++round) {
    uint64_t produced = 0;
    try {
      ordered_pipeline<uint64_t, uint64_t>(
          pool,
          [&](uint64_t& item) {
            if (produced >= kItems) {
              return false;
            }
            item = produced++;
            return true;
          },
          [](uint64_t&& item, uint64_t) {
            if (item == kPoison) {
              throw IoError("poisoned transform " + std::to_string(item));
            }
            return item * 2;
          },
          [](uint64_t&&, uint64_t) {},
          PipelineOptions{});
      FAIL() << "transform error was swallowed";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned transform"),
                std::string::npos);
    }
  }
  // The pool survived five failed pipelines: still fully functional.
  std::atomic<uint64_t> sum{0};
  TaskGroup probe(pool);
  for (int i = 0; i < 1000; ++i) {
    probe.spawn([&sum] { sum.fetch_add(1); });
  }
  probe.wait();
  EXPECT_EQ(sum.load(), 1000u);
}

TEST(PipelineErrors, SinkErrorPropagatesWithoutDeadlock) {
  Pool pool(4);
  constexpr uint64_t kItems = 2000;
  uint64_t produced = 0;
  uint64_t committed = 0;
  try {
    ordered_pipeline<uint64_t, uint64_t>(
        pool,
        [&](uint64_t& item) {
          if (produced >= kItems) {
            return false;
          }
          item = produced++;
          return true;
        },
        [](uint64_t&& item, uint64_t) { return item; },
        [&](uint64_t&& item, uint64_t) {
          if (item == 137) {
            throw IoError("poisoned sink");
          }
          ++committed;
        },
        PipelineOptions{});
    FAIL() << "sink error was swallowed";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("poisoned sink"), std::string::npos);
  }
  // Order guarantee holds right up to the failure point.
  EXPECT_EQ(committed, 137u);
}

TEST(PipelineErrors, SourceErrorPropagatesWithoutDeadlock) {
  Pool pool(4);
  uint64_t produced = 0;
  EXPECT_THROW(
      (ordered_pipeline<uint64_t, uint64_t>(
          pool,
          [&](uint64_t& item) {
            if (produced == 99) {
              throw IoError("poisoned source");
            }
            item = produced++;
            return true;
          },
          [](uint64_t&& item, uint64_t) { return item; },
          [](uint64_t&&, uint64_t) {}, PipelineOptions{})),
      IoError);
}

TEST(PipelineErrors, PushPipelineReportsWorkerErrorToProducer) {
  Pool pool(4);
  PipelineOptions opt;
  opt.workers = 4;
  Pipeline<uint64_t, uint64_t> pipe(
      pool,
      [](uint64_t&& item) {
        if (item == 50) {
          throw IoError("poisoned push transform");
        }
        return item;
      },
      [](uint64_t&&) {}, opt);
  // The error must surface from push() (backpressure path) or finish() —
  // and must not hang either one.
  try {
    for (uint64_t i = 0; i < 10000; ++i) {
      pipe.push(i);
    }
    pipe.finish();
    FAIL() << "worker error was swallowed";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("poisoned push transform"),
              std::string::npos);
  }
}

TEST(TaskGroupErrors, FirstErrorWinsAndGroupReportsFailed) {
  Pool pool(4);
  TaskGroup group(pool);
  for (int i = 0; i < 64; ++i) {
    group.spawn([i] {
      if (i % 8 == 3) {
        throw IoError("task " + std::to_string(i));
      }
    });
  }
  try {
    group.wait();
    FAIL() << "task errors were swallowed";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("task "), std::string::npos);
  }
}

}  // namespace
}  // namespace ngsx::exec
