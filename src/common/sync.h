// Capability-annotated synchronization primitives (DESIGN.md §15).
//
// Every lock in the library goes through the wrappers below so the
// concurrency contracts live in the type system instead of in comments:
// Clang's thread-safety analysis (-Wthread-safety, promoted to an error in
// the `thread-safety` CI lane) proves at compile time that every
// SLP_GUARDED_BY member is only touched with its mutex held, that every
// SLP_REQUIRES function is only called under the right lock, and that no
// path double-acquires, releases without acquiring, or inverts a declared
// lock order. tests/compile_fail/ keeps the analysis honest: one
// negative-compile translation unit per violation class, each asserted to
// be rejected by the compiler and re-accepted once fixed.
//
// On compilers without the analysis (GCC) the attribute macros expand to
// nothing and the wrappers are zero-cost shims over the std primitives,
// so the annotated code builds everywhere and the contracts are enforced
// wherever Clang is the compiler. scripts/lint.py bans raw std::mutex /
// std::lock_guard / std::unique_lock / std::shared_mutex outside this
// header, so new synchronization cannot silently bypass the analysis.

#ifndef SLP_COMMON_SYNC_H_
#define SLP_COMMON_SYNC_H_

#include <condition_variable>
#include <mutex>

// --- Attribute macros ------------------------------------------------------
//
// Thin spellings of Clang's capability attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Only Clang
// understands them; everything else sees empty macros.

#if defined(__clang__)
#define SLP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SLP_THREAD_ANNOTATION(x)
#endif

// Declares a type to be a capability ("mutex") the analysis tracks.
#define SLP_CAPABILITY(x) SLP_THREAD_ANNOTATION(capability(x))

// Declares an RAII type that acquires a capability in its constructor and
// releases it in its destructor.
#define SLP_SCOPED_CAPABILITY SLP_THREAD_ANNOTATION(scoped_lockable)

// Data members: may only be read/written with the capability held.
#define SLP_GUARDED_BY(x) SLP_THREAD_ANNOTATION(guarded_by(x))

// Pointer members: the *pointee* may only be dereferenced with the
// capability held (the pointer itself is unguarded).
#define SLP_PT_GUARDED_BY(x) SLP_THREAD_ANNOTATION(pt_guarded_by(x))

// Lock-ordering declarations; checked under -Wthread-safety-beta.
#define SLP_ACQUIRED_BEFORE(...) \
  SLP_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SLP_ACQUIRED_AFTER(...) \
  SLP_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Function contracts: the caller must hold the listed capabilities on
// entry, and still holds them on exit.
#define SLP_REQUIRES(...) \
  SLP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

// Function acquires / releases the listed capabilities.
#define SLP_ACQUIRE(...) SLP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SLP_RELEASE(...) SLP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SLP_TRY_ACQUIRE(...) \
  SLP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Caller must NOT hold the listed capabilities (anti-deadlock contract for
// functions that acquire them internally, e.g. ThreadPool::ParallelFor).
#define SLP_EXCLUDES(...) SLP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Asserts (at runtime, for the analysis's benefit) that the capability is
// already held; used where the proof is outside the analysis's reach.
#define SLP_ASSERT_CAPABILITY(x) SLP_THREAD_ANNOTATION(assert_capability(x))

// Escape hatch — disables the analysis for one function. Every use must
// carry a comment proving the exemption correct.
#define SLP_NO_THREAD_SAFETY_ANALYSIS \
  SLP_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace slp {

class CondVar;

// --- Exclusive mutex -------------------------------------------------------

// A std::mutex carrying the "mutex" capability. Prefer the RAII MutexLock;
// manual Lock/Unlock exists for the rare split-scope protocol and is fully
// checked (a missing Unlock on any path is a compile error under Clang).
class SLP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SLP_ACQUIRE() { mu_.lock(); }
  void Unlock() SLP_RELEASE() { mu_.unlock(); }
  bool TryLock() SLP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII scope lock over Mutex (the std::lock_guard replacement).
class SLP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SLP_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() SLP_RELEASE() { mu_.Unlock(); }

 private:
  Mutex& mu_;
};

// --- Condition variable ----------------------------------------------------

// Condition variable paired with slp::Mutex. Wait() is deliberately
// predicate-free: callers re-test their condition in a while loop *with
// the mutex held*, which is exactly the shape the thread-safety analysis
// can verify (a predicate lambda would read guarded state from a context
// the analysis cannot see into).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu` (which the caller must hold), blocks until
  // notified, and re-acquires `mu` before returning. Spurious wakeups are
  // possible — always call in a condition loop.
  void Wait(Mutex& mu) SLP_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller resumes ownership of the re-acquired mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace slp

#endif  // SLP_COMMON_SYNC_H_
