// Annotated synchronization primitives: thin wrappers over std::mutex /
// std::condition_variable that carry the Clang capability attributes from
// util/thread_annotations.h.
//
// The wrappers exist because libstdc++'s std::mutex has no capability
// annotations, so Clang's -Wthread-safety cannot see a std::lock_guard
// acquire anything — every CALC_GUARDED_BY field would falsely warn. A
// calculon::Mutex is a real capability and a MutexLock a scoped
// acquisition, so Clang's capability analysis (docs/correctness.md §6)
// can follow the lock discipline. Zero overhead:
// each wrapper is exactly its std counterpart plus attributes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace calculon {

class CondVar;

// An annotated exclusive mutex. Prefer MutexLock over manual Lock/Unlock.
class CALC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CALC_ACQUIRE() { raw_.lock(); }
  void Unlock() CALC_RELEASE() { raw_.unlock(); }
  [[nodiscard]] bool TryLock() CALC_TRY_ACQUIRE(true) {
    return raw_.try_lock();
  }

 private:
  friend class CondVar;  // waits need the native handle
  std::mutex raw_;
};

// RAII scoped acquisition of a Mutex (the std::lock_guard shape).
class CALC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) CALC_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() CALC_RELEASE() { mutex_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mutex_;
};

// Condition variable bound to MutexLock. Waits keep the annotated lock
// state unchanged (release + reacquire happens inside), which matches how
// both analyzers model a wait: the caller holds the mutex before and
// after.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  // Atomically releases `lock`'s mutex and blocks until notified; the
  // mutex is held again on return. Spurious wakeups happen: callers loop
  // on their predicate.
  void Wait(MutexLock& lock) {
    std::unique_lock<std::mutex> native(lock.mutex_.raw_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with `lock`
  }

  // Wait with a deadline; false means the deadline passed before a
  // notification (the mutex is held again either way).
  [[nodiscard]] bool WaitUntil(
      MutexLock& lock, std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> native(lock.mutex_.raw_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status == std::cv_status::no_timeout;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace calculon
