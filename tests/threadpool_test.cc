#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/threadpool.h"

namespace calculon {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(),
                   [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsANoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadStillWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);  // caller-only
  std::atomic<std::uint64_t> sum{0};
  pool.ParallelFor(100, [&](std::uint64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(std::thread::hardware_concurrency(), pool.size() + 1);
}

TEST(ThreadPool, SequentialCallsReuseWorkers) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.ParallelFor(50, [&](std::uint64_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(10,
                                [](std::uint64_t i) {
                                  if (i == 5) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool survives and remains usable afterwards.
  std::atomic<int> ok{0};
  pool.ParallelFor(10, [&](std::uint64_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, MoreItemsThanThreads) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  const std::uint64_t n = 100000;
  pool.ParallelFor(n, [&](std::uint64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ThreadPool, FewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(hits.size(),
                   [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, FirstStoredExceptionWinsAndRangeIsAbandoned) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> executed{0};
  std::atomic<bool> thrown{false};
  const std::uint64_t n = 100000;
  try {
    pool.ParallelFor(n, [&](std::uint64_t i) {
      executed.fetch_add(1);
      if (i == 3) {
        thrown.store(true);
        throw std::runtime_error("item 3");
      }
      // Items claimed after item 3 threw take 1 ms each, so the other
      // threads cannot drain the range (over 30 s) while the thrower is
      // descheduled before it stores the error and abandons the rest.
      if (thrown.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Exactly one of the thrown exceptions propagates.
    EXPECT_STREQ(e.what(), "item 3");
  }
  // The unclaimed remainder was abandoned: nowhere near all items ran.
  EXPECT_LT(executed.load(), n);
}

TEST(ThreadPool, ConcurrentThrowersPropagateExactlyOne) {
  ThreadPool pool(4);
  std::atomic<int> throws{0};
  try {
    pool.ParallelFor(64, [&](std::uint64_t) {
      throws.fetch_add(1);
      throw std::runtime_error("any");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_GE(throws.load(), 1);
}

TEST(ThreadPool, ExceptionDuringNestedUseKeepsPoolAlive) {
  ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(
        pool.ParallelFor(32,
                         [&](std::uint64_t i) {
                           if (i % 3 == 0) throw std::logic_error("x");
                         }),
        std::logic_error);
  }
  std::atomic<int> ok{0};
  pool.ParallelFor(100, [&](std::uint64_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 100);
}

// Stress test aimed at TSan: many small ParallelFor rounds with shared
// mutable state touched through the proper synchronization primitives, plus
// result aggregation mimicking the search engines (mutex-guarded vector).
TEST(ThreadPool, StressManyRoundsWithAggregation) {
  ThreadPool pool(4);
  std::mutex agg_mutex;
  std::vector<std::uint64_t> results;
  for (int round = 0; round < 50; ++round) {
    results.clear();
    pool.ParallelFor(256, [&](std::uint64_t i) {
      const std::uint64_t value = i * i;
      std::lock_guard<std::mutex> lock(agg_mutex);
      results.push_back(value);
    });
    ASSERT_EQ(results.size(), 256u);
  }
}

// Pools constructed and destroyed in a tight loop: exercises the worker
// startup/shutdown handshake under TSan.
TEST(ThreadPool, RapidConstructDestroy) {
  for (int i = 0; i < 25; ++i) {
    ThreadPool pool(3);
    std::atomic<int> n{0};
    pool.ParallelFor(8, [&](std::uint64_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 8);
  }
}

// Participants are the caller (0) plus workers 1..size(), and the id
// reverts to 0 once the drain is over.
TEST(ThreadPool, WorkerIdsNameTheParticipants) {
  ThreadPool pool(3);
  std::atomic<unsigned> max_id{0};
  pool.ParallelFor(500, [&](std::uint64_t) {
    const unsigned id = ThreadPool::CurrentWorkerId();
    unsigned seen = max_id.load();
    while (id > seen && !max_id.compare_exchange_weak(seen, id)) {
    }
  });
  EXPECT_LE(max_id.load(), pool.size());
  // Outside a drain the calling thread reports participant 0.
  EXPECT_EQ(ThreadPool::CurrentWorkerId(), 0u);
}

}  // namespace
}  // namespace calculon
