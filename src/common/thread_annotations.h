// Clang thread-safety annotations plus an annotated Mutex/CondVar wrapper
// over the standard primitives. Under Clang, `-Wthread-safety -Werror` (on
// by default, see the top-level CMakeLists) turns the lock discipline of
// every concurrent structure — the DiskArbiter's READ/WRITE exclusion, the
// BoundedQueue backpressure, the shared cache and catalog state — into a
// compile-time capability analysis: touching a GUARDED_BY field without its
// mutex is a build error on every compile, not a TSan report on the
// interleavings the tests happened to exercise. Under GCC the macros expand
// to nothing and the wrappers are zero-cost pass-throughs, so TSan/ASan
// instrumentation and codegen are unchanged.
//
// On top of the per-class capability analysis, every Mutex declares a
// LockRank — its position in the whole-program acquisition order (see
// DESIGN.md "Lock hierarchy" for the full table and the reasoning behind
// each rank). The invariant: a thread may only acquire a mutex ranked
// strictly BELOW every mutex it already holds, and must never block (file
// I/O, condition waits on other locks) while holding anything ranked below
// LockRank::kIoBoundary. The rank order is enforced three ways:
//  - statically by tools/lock_graph.py over compile_commands.json (a CI
//    job; builds the may-hold-while-acquiring graph and fails on any cycle
//    or rank inversion);
//  - at runtime in debug/sanitizer builds (SCANRAW_LOCK_DEBUG) through the
//    lockdebug:: hooks below, which abort with both lock names and
//    acquisition backtraces on the first violating acquire;
//  - by tools/scanraw_lint.py, which rejects Mutex member declarations in
//    src/ that do not name a rank.
//
// ODR note: rank_/name_ are stored unconditionally and only the hook CALLS
// are gated on SCANRAW_LOCK_DEBUG, so Mutex/MutexLock have identical layout
// in every TU and a debug test TU can safely link against release-built
// libraries (header-only classes like BoundedQueue are instantiated in
// both).
//
// Conventions (see DESIGN.md "Static analysis & sanitizers"):
//  - every shared field is GUARDED_BY its mutex;
//  - private helpers called with the lock held are REQUIRES(mu_);
//  - raw std::mutex / std::condition_variable are banned in src/ outside
//    this header (enforced by tools/scanraw_lint.py); use Mutex, MutexLock
//    and CondVar;
//  - condition waits are written as explicit `while (!cond) cv.Wait(lock);`
//    loops so the guarded reads in the predicate are visible to the
//    analysis (a wait-predicate lambda is analyzed as an unrelated function
//    and would need an escape hatch).
#ifndef SCANRAW_COMMON_THREAD_ANNOTATIONS_H_
#define SCANRAW_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/lock_debug.h"

#if defined(__clang__)
#define SCANRAW_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SCANRAW_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

// A type that models a capability (a mutex).
#define CAPABILITY(x) SCANRAW_THREAD_ANNOTATION(capability(x))
// An RAII type that acquires a capability in its constructor and releases
// it in its destructor.
#define SCOPED_CAPABILITY SCANRAW_THREAD_ANNOTATION(scoped_lockable)
// Data members protected by the given capability.
#define GUARDED_BY(x) SCANRAW_THREAD_ANNOTATION(guarded_by(x))
// Pointer members whose pointee is protected by the given capability.
#define PT_GUARDED_BY(x) SCANRAW_THREAD_ANNOTATION(pt_guarded_by(x))
// The function must be called with the capability held (and does not
// release it).
#define REQUIRES(...) \
  SCANRAW_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// The function acquires / releases the capability.
#define ACQUIRE(...) SCANRAW_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) SCANRAW_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
// The function acquires the capability when it returns `b`.
#define TRY_ACQUIRE(b, ...) \
  SCANRAW_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))
// The function must NOT be called with the capability held (deadlock
// prevention for public entry points that take the lock themselves).
#define EXCLUDES(...) SCANRAW_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// The function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) SCANRAW_THREAD_ANNOTATION(lock_returned(x))
// Escape hatch: disables the analysis for one function. Every use must
// carry a comment justifying it; tools/scanraw_lint.py and review keep the
// count at <= 3 repo-wide.
#define NO_THREAD_SAFETY_ANALYSIS \
  SCANRAW_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace scanraw {

// Whole-program lock acquisition order. Higher rank = outermost: a thread
// may acquire a mutex only if its rank is strictly below the rank of every
// mutex the thread already holds (so equal-rank nesting is also a
// violation). Locks ranked below kIoBoundary must never be held across a
// blocking call (file I/O, CondVar waits on other locks).
//
// Values are spaced so new classes slot in without renumbering. The full
// table with the observed nesting edges that justify each rank lives in
// DESIGN.md "Lock hierarchy"; tools/lock_graph.py re-derives the edges from
// the sources on every CI run, so a rank that drifts from reality fails the
// build rather than the 3am query server.
enum class LockRank : int {
  kUnranked = 0,  // rank not declared; exempt from checks, banned in src/

  // --- leaf tier: held only across in-memory state mutation ------------
  kLeaf = 100,             // misc leaf locks with no outgoing edges
  kMetrics = 120,          // obs::MetricsRegistry map
  kTimeSeriesRing = 140,   // obs::TimeSeriesRing buffer
  kTimeSeries = 160,       // obs::TimeSeries registry (holds ring locks)
  kSpanProfiler = 200,     // obs::SpanProfiler span table
  kResourceLog = 210,      // obs::ResourceLog sample ring
  kTicker = 220,           // pipeline::Ticker task list (ticks run unlocked)
  kProgressTracker = 240,  // obs::ProgressTracker totals + rolling window
  kWorkloadHistory = 280,  // obs::WorkloadHistory table stats
  kCatalog = 300,          // Catalog table map
  kFaultInjection = 310,   // FaultInjector config + counters
  kRateLimiter = 320,      // RateLimiter token bucket
  kDiskArbiter = 330,      // DiskArbiter reader/writer turnstile
  kPositionalMapCache = 350,  // PositionalMapCache map
  kChunkBufferPool = 360,  // ChunkBufferPool free list
  kChunkCache = 370,       // ChunkCache chunk map
  kBoundedQueue = 390,     // pipeline::BoundedQueue ring
  kThreadPool = 400,       // pipeline::ThreadPool task queue
  kScanInflight = 420,     // scan_raw.cc QueryRun tasks, buffers, error
  kScanActive = 440,       // ScanRaw per-query profiling registry
  kScanWrite = 460,        // ScanRaw background-write completion latch
  kScanPending = 480,      // ScanRaw pending-write queue (holds catalog,
                           // chunk cache while marking chunks durable)

  // --- the I/O boundary -------------------------------------------------
  // Everything below this line is a hot-path in-memory lock: holding one
  // across a blocking syscall would stall every pipeline thread touching
  // that structure. Everything above is explicitly allowed to perform I/O
  // under its lock (serialized writers, control-plane singletons).
  kIoBoundary = 500,

  // --- I/O-capable tier: coarse locks that serialize slow paths ---------
  kLogger = 700,        // obs::Logger (writes to the JSONL sink under mu_)
  kStorageRead = 780,   // StorageManager reader cache (lazy file open)
  kStorageWrite = 800,  // StorageManager writer (appends segments)
  kWatchdog = 850,      // obs::Watchdog (logs + dumps flight under mu_)
  kStatsServer = 900,   // obs::StatsServer (socket syscalls under mu_)
  kQueryLog = 950,      // obs::QueryLog (file append + observer fan-out)
  kScanRawManager = 1000,  // ScanRawManager operator map (waits on, creates
                           // and queries operators under mu_): outermost
};

static_assert(static_cast<int>(LockRank::kIoBoundary) ==
                  lockdebug::kIoBoundaryRank,
              "LockRank::kIoBoundary must match lockdebug::kIoBoundaryRank");
static_assert(static_cast<int>(LockRank::kUnranked) ==
                  lockdebug::kUnrankedRank,
              "LockRank::kUnranked must match lockdebug::kUnrankedRank");

class CondVar;

// Annotated mutex. A thin wrapper over std::mutex so the capability
// analysis can name it; prefer the scoped MutexLock over manual
// Lock/Unlock. Declare members with a rank and a stable diagnostic name:
//   mutable Mutex mu_{LockRank::kChunkCache, "ChunkCache.mu"};
// The unranked default constructor exists for tests and scratch code; the
// mutex-rank lint rule keeps it out of src/.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockRank rank, const char* name = "")
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#if defined(SCANRAW_LOCK_DEBUG)
    lockdebug::OnAcquire(this, static_cast<int>(rank_), name_);
#endif
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
#if defined(SCANRAW_LOCK_DEBUG)
    lockdebug::OnRelease(this);
#endif
  }
  bool TryLock() TRY_ACQUIRE(true) {
    bool acquired = mu_.try_lock();
#if defined(SCANRAW_LOCK_DEBUG)
    if (acquired) {
      lockdebug::OnTryAcquire(this, static_cast<int>(rank_), name_);
    }
#endif
    return acquired;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "";
};

// RAII lock for Mutex (the scoped capability the analysis tracks).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu)
      : mu_(&mu), lock_(mu.mu_, std::defer_lock) {
#if defined(SCANRAW_LOCK_DEBUG)
    lockdebug::OnAcquire(mu_, static_cast<int>(mu.rank_), mu.name_);
#endif
    lock_.lock();
  }
  ~MutexLock() RELEASE() {
#if defined(SCANRAW_LOCK_DEBUG)
    if (lock_.owns_lock()) lockdebug::OnRelease(mu_);
#endif
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex* mu_;
  std::unique_lock<std::mutex> lock_;
};

// Condition variable bound to the annotated Mutex through MutexLock. Wait
// atomically releases and reacquires the lock; from the analysis's point of
// view the capability is held across the call, which is exactly the
// invariant the caller's wait loop relies on.
//
// A wait is a blocking call: in SCANRAW_LOCK_DEBUG builds it asserts the
// thread holds nothing below the I/O boundary other than the lock the wait
// itself releases.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) {
#if defined(SCANRAW_LOCK_DEBUG)
    lockdebug::AssertSafeToBlockExcept(lock.mu_, "CondVar::Wait");
#endif
    cv_.wait(lock.lock_);
  }

  // Timed wait; returns std::cv_status::timeout when the duration elapsed.
  template <typename Rep, typename Period>
  std::cv_status WaitFor(MutexLock& lock,
                         const std::chrono::duration<Rep, Period>& dur) {
#if defined(SCANRAW_LOCK_DEBUG)
    lockdebug::AssertSafeToBlockExcept(lock.mu_, "CondVar::WaitFor");
#endif
    return cv_.wait_for(lock.lock_, dur);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace scanraw

#endif  // SCANRAW_COMMON_THREAD_ANNOTATIONS_H_
