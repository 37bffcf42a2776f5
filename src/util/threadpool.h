// Minimal thread pool with a dynamic parallel-for, used by the search
// engines to spread configuration evaluation across cores (the paper:
// "a standard multi-core desktop computer is able to search the entire
// configuration space in minutes").
//
// Lives in the util layer (the bottom of the dependency DAG) so every
// layer may use it. It only runs items: cancellation, deadlines and
// failure isolation belong to the engines that poll their RunContext.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace calculon {

class ThreadPool {
 public:
  // `threads == 0` uses the hardware concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  // Runs fn(i) for every i in [0, count). Work items are claimed one at a
  // time from a shared counter (items are coarse-grained in the search
  // engines, so contention is negligible). Blocks until all are done; also
  // executes work on the calling thread. Exceptions from `fn` propagate to
  // the caller: the first exception stored wins, the remaining unclaimed
  // range is abandoned, and in-flight items finish before the call returns.
  // `fn` must be safe to call concurrently from multiple threads.
  void ParallelFor(std::uint64_t count,
                   const std::function<void(std::uint64_t)>& fn)
      CALC_EXCLUDES(mutex_);

  // Participant index of the calling thread inside the ParallelFor it is
  // currently draining: 0 for the caller thread, 1..N for pool workers.
  // Used to attribute FailureRecords to workers.
  [[nodiscard]] static unsigned CurrentWorkerId();

 private:
  void WorkerLoop() CALC_EXCLUDES(mutex_);

  // Filled in the constructor, joined in the destructor, immutable between.
  std::vector<std::thread> workers_;  // ctor/dtor
  Mutex mutex_;
  CondVar cv_;
  std::queue<std::function<void()>> tasks_ CALC_GUARDED_BY(mutex_);
  bool stop_ CALC_GUARDED_BY(mutex_) = false;
};

}  // namespace calculon
