// Tests for the parallel work-stealing engine and the Chase-Lev deque.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "futrace/runtime/runtime.hpp"
#include "futrace/runtime/ws_deque.hpp"

namespace futrace {
namespace {

// -------------------------------------------------------------------- ws_deque

TEST(WsDeque, LifoForOwner) {
  ws_deque<int> d;
  d.push(1);
  d.push(2);
  d.push(3);
  EXPECT_EQ(d.pop(), 3);
  EXPECT_EQ(d.pop(), 2);
  EXPECT_EQ(d.pop(), 1);
  EXPECT_EQ(d.pop(), std::nullopt);
}

TEST(WsDeque, FifoForThief) {
  ws_deque<int> d;
  d.push(1);
  d.push(2);
  d.push(3);
  EXPECT_EQ(d.steal(), 1);
  EXPECT_EQ(d.steal(), 2);
  EXPECT_EQ(d.steal(), 3);
  EXPECT_EQ(d.steal(), std::nullopt);
}

TEST(WsDeque, GrowsPastInitialCapacity) {
  ws_deque<int> d(4);
  for (int i = 0; i < 1000; ++i) d.push(i);
  for (int i = 999; i >= 0; --i) EXPECT_EQ(d.pop(), i);
}

TEST(WsDeque, ConcurrentStealersReceiveEachElementOnce) {
  ws_deque<int> d;
  constexpr int kItems = 20000;
  std::atomic<long long> sum{0};
  std::atomic<int> taken{0};
  std::atomic<bool> done{false};

  auto thief = [&] {
    while (!done.load() || !d.empty_estimate()) {
      if (auto v = d.steal()) {
        sum.fetch_add(*v);
        taken.fetch_add(1);
      }
    }
  };
  std::thread t1(thief), t2(thief);

  long long pushed = 0;
  for (int i = 1; i <= kItems; ++i) {
    d.push(i);
    pushed += i;
    if (i % 3 == 0) {
      if (auto v = d.pop()) {
        sum.fetch_add(*v);
        taken.fetch_add(1);
      }
    }
  }
  while (auto v = d.pop()) {
    sum.fetch_add(*v);
    taken.fetch_add(1);
  }
  done.store(true);
  t1.join();
  t2.join();
  // Late steals after the final pop sweep:
  while (auto v = d.steal()) {
    sum.fetch_add(*v);
    taken.fetch_add(1);
  }
  EXPECT_EQ(taken.load(), kItems);
  EXPECT_EQ(sum.load(), pushed);
}

// -------------------------------------------------------------- parallel engine

TEST(ParallelEngine, FinishWaitsForAllTasks) {
  runtime rt({.mode = exec_mode::parallel, .workers = 4});
  std::atomic<int> counter{0};
  rt.run([&] {
    finish([&] {
      for (int i = 0; i < 100; ++i) {
        async([&] { counter.fetch_add(1); });
      }
    });
    EXPECT_EQ(counter.load(), 100);
  });
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(rt.tasks_spawned(), 100u);
}

TEST(ParallelEngine, NestedSpawnsAllJoinOuterFinish) {
  runtime rt({.mode = exec_mode::parallel, .workers = 3});
  std::atomic<int> counter{0};
  rt.run([&] {
    finish([&] {
      for (int i = 0; i < 8; ++i) {
        async([&] {
          for (int j = 0; j < 8; ++j) {
            async([&] { counter.fetch_add(1); });
          }
        });
      }
    });
    EXPECT_EQ(counter.load(), 64);
  });
}

TEST(ParallelEngine, FutureGetReturnsValue) {
  runtime rt({.mode = exec_mode::parallel, .workers = 4});
  rt.run([] {
    auto f = async_future([] { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
  });
}

TEST(ParallelEngine, FutureChainComputesCorrectly) {
  runtime rt({.mode = exec_mode::parallel, .workers = 4});
  rt.run([] {
    auto a = async_future([] { return 1; });
    auto b = async_future([a] { return a.get() + 1; });
    auto c = async_future([b] { return b.get() + 1; });
    EXPECT_EQ(c.get(), 3);
  });
}

TEST(ParallelEngine, ManyFuturesFanIn) {
  runtime rt({.mode = exec_mode::parallel, .workers = 4});
  rt.run([] {
    std::vector<future<int>> futs;
    for (int i = 0; i < 200; ++i) {
      futs.push_back(async_future([i] { return i; }));
    }
    int total = 0;
    for (auto& f : futs) total += f.get();
    EXPECT_EQ(total, 199 * 200 / 2);
  });
}

TEST(ParallelEngine, RecursiveFibonacciWithFutures) {
  runtime rt({.mode = exec_mode::parallel, .workers = 4});
  rt.run([] {
    struct fib_fn {
      int operator()(int n) const {
        if (n < 2) return n;
        const fib_fn self;
        auto left = async_future([n, self] { return self(n - 1); });
        const int right = self(n - 2);
        return left.get() + right;
      }
    };
    EXPECT_EQ(fib_fn{}(18), 2584);
  });
}

TEST(ParallelEngine, ExceptionInFinishPropagates) {
  runtime rt({.mode = exec_mode::parallel, .workers = 2});
  EXPECT_THROW(rt.run([] {
    finish([] {
      async([] { throw std::runtime_error("task failed"); });
    });
  }),
               std::runtime_error);
}

TEST(ParallelEngine, ExceptionInFutureSurfacesAtGet) {
  runtime rt({.mode = exec_mode::parallel, .workers = 2});
  rt.run([] {
    auto f = async_future([]() -> int { throw std::logic_error("bad"); });
    EXPECT_THROW((void)f.get(), std::logic_error);
  });
}

TEST(ParallelEngine, SingleWorkerStillCompletes) {
  runtime rt({.mode = exec_mode::parallel, .workers = 1});
  std::atomic<int> counter{0};
  rt.run([&] {
    finish([&] {
      for (int i = 0; i < 50; ++i) async([&] { counter.fetch_add(1); });
    });
  });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelEngine, ObserversAreRejected) {
  class noop_observer : public execution_observer {};
  noop_observer obs;
  runtime rt({.mode = exec_mode::parallel});
  EXPECT_DEATH(rt.add_observer(&obs), "serial depth-first");
}

TEST(ParallelEngine, DeeplyNestedFinishScopes) {
  runtime rt({.mode = exec_mode::parallel, .workers = 3});
  std::atomic<int> depth_sum{0};
  rt.run([&] {
    std::function<void(int)> nest = [&](int depth) {
      if (depth == 0) {
        depth_sum.fetch_add(1);
        return;
      }
      finish([&, depth] {
        async([&, depth] { nest(depth - 1); });
        async([&, depth] { nest(depth - 1); });
      });
    };
    nest(8);
  });
  EXPECT_EQ(depth_sum.load(), 256);
}

TEST(ParallelEngine, MixedFuturesPromisesAndFinish) {
  runtime rt({.mode = exec_mode::parallel, .workers = 4});
  rt.run([] {
    promise<int> seed;
    std::vector<future<long>> stages;
    finish([&] {
      async([&] { seed.put(5); });
      for (int i = 0; i < 16; ++i) {
        stages.push_back(async_future([&seed, i] {
          return static_cast<long>(seed.get()) * (i + 1);
        }));
      }
    });
    long total = 0;
    for (auto& s : stages) total += s.get();
    EXPECT_EQ(total, 5L * (16 * 17 / 2));
  });
}

TEST(ParallelEngine, StressManySmallTasksRepeated) {
  for (int round = 0; round < 3; ++round) {
    runtime rt({.mode = exec_mode::parallel, .workers = 4});
    std::atomic<long> sum{0};
    rt.run([&] {
      finish([&] {
        for (int i = 1; i <= 2000; ++i) {
          async([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
        }
      });
    });
    EXPECT_EQ(sum.load(), 2000L * 2001 / 2);
  }
}

// A blocked get() must not help with a task that comes after it in serial
// order: if that task waits on the blocked task's continuation, it sits above
// the waiter on the same stack and neither can finish. The schedule forces
// the trap: X holds one worker, A blocks on X on another, and B (serially
// after A, waiting on A's put) is spawned while A's worker is the only one
// looking for work. The program is serially feasible, as the serial run
// shows.
TEST(ParallelEngine, BlockedWaitNeverRunsATaskThatWaitsOnIt) {
  for (exec_mode mode : {exec_mode::serial_dfs, exec_mode::parallel}) {
    SCOPED_TRACE(exec_mode_name(mode));
    runtime rt({.mode = mode, .workers = 3, .deadlock_timeout_ms = 2000});
    std::atomic<bool> a_started{false};
    std::atomic<bool> b_started{false};
    int got = 0;
    EXPECT_NO_THROW(rt.run([&] {
      promise<int> q;
      auto x = async_future([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return 1;
      });
      auto a = async_future([x, &q, &a_started] {
        a_started.store(true);
        const int v = x.get();
        q.put(v + 1);
        return v;
      });
      while (!a_started.load()) std::this_thread::yield();
      auto b = async_future([&q, &b_started] {
        b_started.store(true);
        return q.get();
      });
      while (!b_started.load()) std::this_thread::yield();
      got = b.get() + a.get();
    }));
    EXPECT_EQ(got, 3);
  }
}

// Each stage waits on its predecessor's promise, so a waiter that helped
// with a later stage would bury itself under a task waiting on it.
TEST(ParallelEngine, PromisePipelineCompletesAtEveryWorkerCount) {
  constexpr int kStages = 24;
  for (unsigned workers = 1; workers <= 4; ++workers) {
    for (int round = 0; round < 25; ++round) {
      runtime rt({.mode = exec_mode::parallel, .workers = workers,
                  .deadlock_timeout_ms = 5000});
      int result = -1;
      rt.run([&result] {
        std::vector<promise<int>> links(kStages + 1);
        finish([&links] {
          for (int i = 1; i <= kStages; ++i) {
            async([&links, i] { links[i].put(links[i - 1].get() + 1); });
          }
          links[0].put(0);
        });
        result = links[kStages].get();
      });
      EXPECT_EQ(result, kStages) << workers << " workers, round " << round;
    }
  }
}

// Race-free shared<T> programs compute deterministically in parallel mode.
TEST(ParallelEngine, SharedCellsWithProperSynchronization) {
  for (int round = 0; round < 5; ++round) {
    runtime rt({.mode = exec_mode::parallel, .workers = 4});
    rt.run([] {
      shared_array<int> data(64);
      finish([&] {
        for (std::size_t i = 0; i < 64; ++i) {
          async([&data, i] { data.write(i, static_cast<int>(i) * 2); });
        }
      });
      long long total = 0;
      for (std::size_t i = 0; i < 64; ++i) total += data.read(i);
      EXPECT_EQ(total, 63LL * 64);
    });
  }
}

}  // namespace
}  // namespace futrace
