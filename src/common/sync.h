// Annotated synchronization primitives (ISSUE 8).
//
// libstdc++'s std::mutex carries no thread-safety annotations, so Clang's
// -Wthread-safety analysis cannot reason about it.  These thin wrappers are
// the project's sanctioned lock types: qdb::Mutex declares itself a
// capability, qdb::MutexLock is the RAII guard the analysis understands, and
// qdb::CondVar only exposes *predicated* waits — the predicate-less overload
// that invites lost-wakeup bugs simply does not exist in the API.
//
// Conventions (enforced by qdb_lint, see DESIGN.md §13):
//   - raw std::mutex / std::condition_variable / std::lock_guard /
//     std::unique_lock may not appear in src/ outside this header
//     (`unannotated-mutex` rule);
//   - .lock()/.unlock() are never called directly outside this header
//     (`naked-lock` rule) — scope a MutexLock instead;
//   - every field a Mutex guards is tagged QDB_GUARDED_BY(mu_), and every
//     private helper that expects the lock held is tagged QDB_REQUIRES(mu_).
//
// Zero-cost claim: each wrapper is a standard-layout shell over the libstdc++
// type with every member defined inline; under GCC the annotation macros
// vanish and the wrappers compile to the exact same code as the raw types.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/annotations.h"

namespace qdb {

/// Annotated exclusive mutex.  Prefer MutexLock over calling lock()/unlock()
/// directly; the explicit methods exist for the rare adoption patterns and
/// are themselves annotated so misuse is still caught under Clang.
class QDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() QDB_ACQUIRE() { mu_.lock(); }
  void unlock() QDB_RELEASE() { mu_.unlock(); }
  bool try_lock() QDB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII guard over qdb::Mutex — the project's std::lock_guard.  Scoped
/// acquisition is the only lock idiom qdb_lint accepts outside sync.h.
class QDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) QDB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() QDB_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to qdb::Mutex.  Every wait takes a predicate, so
/// spurious wakeups and missed notifications are handled by construction;
/// the caller must already hold the mutex (QDB_REQUIRES), mirroring how the
/// waits sit inside a MutexLock scope.
///
/// The implementation adopts the already-held native mutex into a
/// std::unique_lock for the duration of the wait and releases it back
/// un-owned-by-the-lock afterwards — the capability never actually changes
/// hands, which is why the bodies opt out of the analysis while the
/// declarations keep the contract.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Block until pred() is true.  pred runs with `mu` held; lambdas that
  /// read guarded state should carry their own QDB_REQUIRES annotation.
  template <typename Pred>
  void wait(Mutex& mu, Pred pred) QDB_REQUIRES(mu) QDB_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();
  }

  /// Block until pred() is true or ~ms milliseconds elapse; returns the
  /// final pred() value (false means timeout with the predicate still
  /// unsatisfied).  Same locking contract as wait().
  template <typename Pred>
  bool wait_for_ms(Mutex& mu, std::uint64_t ms, Pred pred)
      QDB_REQUIRES(mu) QDB_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const bool satisfied =
        cv_.wait_for(native, std::chrono::milliseconds(ms), std::move(pred));
    native.release();
    return satisfied;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace qdb
