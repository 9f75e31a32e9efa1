// A small reusable worker pool for data-parallel index loops.
//
// The COYOTE hot paths (pool normalization in addPool, per-matrix
// propagation in PerformanceEvaluator::ratioFor/worst) are embarrassingly
// parallel over matrix indices. This pool replaces their ad-hoc
// std::thread spawning with persistent workers: parallelFor(n, fn) hands
// indices out through an atomic counter, the calling thread participates
// as worker 0, and the call returns only when every index is done.
//
// Determinism: workers write results into caller-owned, index-addressed
// slots and any reduction happens serially on the caller's side, so the
// outcome is bit-identical no matter how many threads run the loop
// (including thread_count() == 1, which executes entirely inline).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace coyote::util {

class ThreadPool {
 public:
  /// Largest thread count a pool accepts (COYOTE_THREADS and the
  /// constructor alike).
  static constexpr unsigned kMaxThreads = 1024;

  /// Creates a pool that runs loops on `threads` threads in total
  /// (the caller counts as one; `threads - 1` workers are spawned).
  /// `threads == 0` picks the hardware default (see defaultThreads()).
  /// Throws std::invalid_argument above kMaxThreads.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads a loop runs on, caller included; always >= 1.
  [[nodiscard]] unsigned threadCount() const { return threads_; }

  /// Runs fn(i) for every i in [0, n), distributing indices across the
  /// pool, and blocks until all n calls returned. The first exception
  /// thrown by any fn(i) is rethrown here (remaining indices may be
  /// skipped). Safe to call from several threads at once (concurrent
  /// jobs are serialized). Not reentrant: fn must not call parallelFor
  /// on the *same* pool -- a nested call would block on the outer job's
  /// submission lock from inside that very job and deadlock. The entry
  /// guard detects this and throws std::invalid_argument immediately
  /// (at every thread count, so misuse cannot hide behind
  /// COYOTE_THREADS=1's inline path). Dispatching into a *different*
  /// pool from inside a job is fine.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Process-wide shared pool, sized by defaultThreads(); lazily built.
  static ThreadPool& global();

  /// COYOTE_THREADS if set to a positive integer, else
  /// std::thread::hardware_concurrency() (else 1). Throws
  /// std::invalid_argument when COYOTE_THREADS is set to anything but an
  /// integer in [0, kMaxThreads]; 0 and the empty string mean unset.
  static unsigned defaultThreads();

  /// Parses a user-supplied thread count: a decimal integer in
  /// [0, kMaxThreads] (0 = hardware default). Throws std::invalid_argument
  /// naming `what` (the variable or flag it came from) otherwise.
  static unsigned parseThreadCount(const std::string& text, const char* what);

 private:
  void workerLoop();
  // Pulls indices from next_ and applies fn until the job is exhausted;
  // on exception, records the first error and cancels remaining indices.
  void runIndices(const std::function<void(std::size_t)>& fn, std::size_t n);

  unsigned threads_;
  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;  // serializes concurrent parallelFor callers
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  // Current job; fn_/n_ written by the caller under mutex_, read by
  // workers under mutex_ when they pick the job up. next_ is the shared
  // index dispenser. A job is finished when next_ >= n_ and active_ == 0.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};
  unsigned active_ = 0;        // workers inside runIndices; guarded by mutex_
  std::exception_ptr error_;   // first failure; guarded by mutex_
  bool stop_ = false;          // guarded by mutex_
};

}  // namespace coyote::util
