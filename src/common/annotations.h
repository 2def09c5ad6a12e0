// Clang thread-safety annotation macros (ISSUE 8).
//
// The concurrent subsystems (store, serve, obs, orchestrate) prove their lock
// discipline dynamically under TSan, which only sees the interleavings a seed
// happens to exercise.  These macros make the discipline *static*: every
// mutex is declared as a capability, every piece of guarded state names its
// guard, and every function that touches guarded state declares its locking
// contract in the signature.  Clang's -Wthread-safety analysis then rejects,
// at compile time, any access path that does not hold the right lock — the
// CI clang-thread-safety job builds with -Werror=thread-safety.
//
// Under GCC (the default toolchain here) the macros expand to nothing, so
// they are pure documentation with zero runtime or codegen cost.  The macro
// set and naming follow the Abseil/Clang convention
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html); the QDB_ prefix
// keeps them greppable and lets qdb_lint's `unannotated-mutex` rule verify
// that raw std::mutex never appears outside the annotated wrappers in
// common/sync.h.
//
// Annotation cheat-sheet (all attach to declarations):
//
//   QDB_CAPABILITY("mutex")      class declares itself a lockable capability
//   QDB_SCOPED_CAPABILITY        RAII type that acquires in ctor/releases in dtor
//   QDB_GUARDED_BY(mu)           field may only be read/written holding mu
//   QDB_PT_GUARDED_BY(mu)        pointee (not the pointer) guarded by mu
//   QDB_REQUIRES(mu)             caller must hold mu (and still holds it after)
//   QDB_REQUIRES_SHARED(mu)      caller must hold mu at least shared
//   QDB_ACQUIRE(mu)              function acquires mu, holds it on return
//   QDB_RELEASE(mu)              function releases mu
//   QDB_TRY_ACQUIRE(true, mu)    acquires mu iff the return value is `true`
//   QDB_EXCLUDES(mu)             caller must NOT hold mu (deadlock guard)
//   QDB_ASSERT_CAPABILITY(mu)    runtime assertion that mu is held
//   QDB_RETURN_CAPABILITY(mu)    function returns a reference to capability mu
//   QDB_NO_THREAD_SAFETY_ANALYSIS  opt a definition out (justify in a comment)
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define QDB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define QDB_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

#define QDB_CAPABILITY(x) QDB_THREAD_ANNOTATION(capability(x))
#define QDB_SCOPED_CAPABILITY QDB_THREAD_ANNOTATION(scoped_lockable)
#define QDB_GUARDED_BY(x) QDB_THREAD_ANNOTATION(guarded_by(x))
#define QDB_PT_GUARDED_BY(x) QDB_THREAD_ANNOTATION(pt_guarded_by(x))
#define QDB_ACQUIRED_BEFORE(...) QDB_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define QDB_ACQUIRED_AFTER(...) QDB_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define QDB_REQUIRES(...) QDB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define QDB_REQUIRES_SHARED(...) \
  QDB_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define QDB_ACQUIRE(...) QDB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define QDB_ACQUIRE_SHARED(...) QDB_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define QDB_RELEASE(...) QDB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define QDB_RELEASE_SHARED(...) QDB_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define QDB_TRY_ACQUIRE(...) QDB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define QDB_EXCLUDES(...) QDB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define QDB_ASSERT_CAPABILITY(x) QDB_THREAD_ANNOTATION(assert_capability(x))
#define QDB_RETURN_CAPABILITY(x) QDB_THREAD_ANNOTATION(lock_returned(x))
#define QDB_NO_THREAD_SAFETY_ANALYSIS QDB_THREAD_ANNOTATION(no_thread_safety_analysis)
