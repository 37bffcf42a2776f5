#include "util/threadpool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace calculon {
namespace {

// Participant index of the ParallelFor the current thread is draining
// (0 = caller, 1..N = pool workers); 0 outside any drain.
thread_local unsigned tls_worker_id = 0;

// Shared state of one ParallelFor call. Owned jointly by the caller and the
// queued helper tasks (helpers can outlive the call's scope on the queue if
// the caller finishes draining first, so the state is reference-counted).
struct ParallelForJob {
  explicit ParallelForJob(std::uint64_t count_) : count(count_) {}

  const std::uint64_t count;
  std::atomic<std::uint64_t> next{0};  // next unclaimed index

  Mutex mutex;
  CondVar done_cv;  // signaled when pending reaches zero
  std::uint64_t pending CALC_GUARDED_BY(mutex) = 0;  // still draining
  std::exception_ptr error CALC_GUARDED_BY(mutex);  // first exception from fn

  // Claims indices until the range is exhausted. An exception claims away
  // the whole remaining range so every participant stops quickly and the
  // first-stored exception wins deterministically per participant.
  void Drain(const std::function<void(std::uint64_t)>& fn, unsigned worker)
      CALC_EXCLUDES(mutex) {
    const unsigned prev_worker = tls_worker_id;
    tls_worker_id = worker;
    while (true) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        fn(i);
      } catch (...) {
        StoreError();
      }
    }
    tls_worker_id = prev_worker;
    MutexLock lock(mutex);
    if (--pending == 0) done_cv.NotifyAll();
  }

 private:
  void StoreError() CALC_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    if (!error) error = std::current_exception();
    next.store(count, std::memory_order_relaxed);
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  // The calling thread participates in ParallelFor, so spawn one fewer.
  for (unsigned i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

unsigned ThreadPool::CurrentWorkerId() { return tls_worker_id; }

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && tasks_.empty()) cv_.Wait(lock);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(std::uint64_t count,
                             const std::function<void(std::uint64_t)>& fn) {
  if (count == 0) return;
  auto job = std::make_shared<ParallelForJob>(count);

  // Helper tasks capture `fn` and the job state by value so a task sitting
  // on the queue stays self-contained: even if it is picked up after the
  // caller has already drained the whole range, it finds count exhausted and
  // only decrements pending. Spawn at most one helper per claimable item.
  const std::uint64_t helpers =
      std::min<std::uint64_t>(workers_.size(), count);
  {
    // Written before the helper tasks are published to the queue, but the
    // queue push itself is the synchronization point — take the job mutex so
    // the write is unambiguously ordered (and visible to the analyzers).
    MutexLock lock(job->mutex);
    job->pending = helpers + 1;
  }
  if (helpers > 0) {
    std::function<void(std::uint64_t)> fn_copy = fn;
    {
      MutexLock lock(mutex_);
      for (std::uint64_t i = 0; i < helpers; ++i) {
        const unsigned worker = static_cast<unsigned>(i) + 1;
        tasks_.push([job, fn_copy, worker] { job->Drain(fn_copy, worker); });
      }
    }
    cv_.NotifyAll();
  }

  job->Drain(fn, /*worker=*/0);  // the caller participates

  std::exception_ptr error;
  {
    MutexLock lock(job->mutex);
    while (job->pending != 0) job->done_cv.Wait(lock);
    error = job->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace calculon
