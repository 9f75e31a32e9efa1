#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/parse.hpp"
#include "util/require.hpp"

namespace coyote::util {

namespace {

/// The pool whose job this thread is currently executing (nullptr
/// outside parallelFor). Backs the reentrancy guard: a nested
/// parallelFor on the same pool would deadlock on submit_mutex_, so it
/// must fail fast instead. A RAII frame (not a bare assignment) keeps
/// the marker correct when pools nest across *different* instances.
thread_local const ThreadPool* tls_running_pool = nullptr;

class RunningPoolFrame {
 public:
  explicit RunningPoolFrame(const ThreadPool* pool)
      : previous_(tls_running_pool) {
    tls_running_pool = pool;
  }
  ~RunningPoolFrame() { tls_running_pool = previous_; }
  RunningPoolFrame(const RunningPoolFrame&) = delete;
  RunningPoolFrame& operator=(const RunningPoolFrame&) = delete;

 private:
  const ThreadPool* previous_;
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads)
    : threads_(std::max(1u, threads == 0 ? defaultThreads() : threads)) {
  require(threads_ <= kMaxThreads,
          "ThreadPool: " + std::to_string(threads_) + " threads exceeds the " +
              std::to_string(kMaxThreads) + " cap");
  workers_.reserve(threads_ - 1);
  for (unsigned i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  // Fail-fast reentrancy guard, checked before any early return so the
  // error is identical at every thread count and job size (the deadlock
  // it prevents only bites on the multi-threaded path).
  require(tls_running_pool != this,
          "ThreadPool::parallelFor called from inside one of this pool's "
          "own jobs (not reentrant; it would deadlock) -- run the nested "
          "loop serially or on a different pool");
  if (n == 0) return;
  if (threads_ == 1 || n == 1 || workers_.empty()) {
    const RunningPoolFrame frame(this);
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Serialize concurrent submitters: callers that race on the shared pool
  // (e.g. two threads evaluating on the same PerformanceEvaluator) run
  // their jobs back to back instead of corrupting fn_/n_/next_.
  const std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    n_ = n;
    error_ = nullptr;
    next_.store(0);
  }
  work_ready_.notify_all();
  runIndices(fn, n);  // the caller is worker 0
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [&] { return next_.load() >= n_ && active_ == 0; });
  fn_ = nullptr;
  n_ = 0;
  const std::exception_ptr error = error_;
  error_ = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [&] { return stop_ || next_.load() < n_; });
    if (stop_) return;
    const std::function<void(std::size_t)>& fn = *fn_;
    const std::size_t n = n_;
    ++active_;
    lock.unlock();
    runIndices(fn, n);
    lock.lock();
    --active_;
    if (active_ == 0 && next_.load() >= n_) work_done_.notify_all();
  }
}

void ThreadPool::runIndices(const std::function<void(std::size_t)>& fn,
                            std::size_t n) {
  const RunningPoolFrame frame(this);
  try {
    for (std::size_t i = next_.fetch_add(1); i < n; i = next_.fetch_add(1)) {
      fn(i);
    }
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
    next_.store(n);  // cancel indices not yet handed out
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

unsigned ThreadPool::defaultThreads() {
  const char* v = std::getenv("COYOTE_THREADS");
  const unsigned n =
      v == nullptr || *v == '\0' ? 0 : parseThreadCount(v, "COYOTE_THREADS");
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : std::min(hw, kMaxThreads);
}

unsigned ThreadPool::parseThreadCount(const std::string& text,
                                      const char* what) {
  return parseInteger<unsigned>(text, 0, kMaxThreads, what);
}

}  // namespace coyote::util
