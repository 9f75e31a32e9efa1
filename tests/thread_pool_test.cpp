// util::ThreadPool: coverage, reuse, exception propagation, determinism.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace coyote::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallelFor(16, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ZeroAndOneIndexJobs) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallelFor(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, IsReusableAcrossManyJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.parallelFor(round + 1,
                     [&](std::size_t i) { sum += static_cast<int>(i) + 1; });
    EXPECT_EQ(sum.load(), (round + 1) * (round + 2) / 2) << "round " << round;
  }
}

TEST(ThreadPool, UsesMultipleThreads) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  // Enough indices with a small wait that a single thread cannot drain the
  // job before the workers wake up.
  pool.parallelFor(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard<std::mutex> lock(mutex);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_GT(seen.size(), 1u);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallelFor(100,
                                [&](std::size_t i) {
                                  if (i == 17) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives a failed job and keeps scheduling.
  std::atomic<int> ok{0};
  pool.parallelFor(10, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, ExceptionOnSingleThreadPool) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.parallelFor(3, [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
}

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::defaultThreads(), 1u);
  EXPECT_GE(ThreadPool::global().threadCount(), 1u);
}

/// The std::invalid_argument message `fn` throws ("" when it returns).
template <class Fn>
std::string rejection(Fn fn) {
  try {
    (void)fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(ThreadPool, ThreadCountsFromOutsideAreRangeChecked) {
  // COYOTE_THREADS is parsed without narrowing: anything but an integer
  // in [0, kMaxThreads] is an error naming the variable, never a wrapped
  // (4294967297 -> 1) or huge (5000000000 -> 705032704) pool size.
  const char* saved = std::getenv("COYOTE_THREADS");
  const bool was_set = saved != nullptr;
  const std::string restore = was_set ? saved : "";
  const auto threadsFor = [](const char* value) {
    ::setenv("COYOTE_THREADS", value, 1);
    return ThreadPool::defaultThreads();
  };
  EXPECT_EQ(threadsFor("3"), 3u);
  EXPECT_EQ(threadsFor("1024"), ThreadPool::kMaxThreads);
  EXPECT_GE(threadsFor("0"), 1u);  // 0 = hardware threads
  EXPECT_GE(threadsFor(""), 1u);   // empty = unset
  for (const char* bad :
       {"5000000000", "4294967297", "-1", "1025", "abc", "4x", " 4", "+4"}) {
    EXPECT_NE(rejection([&] { return threadsFor(bad); }).find("COYOTE_THREADS"),
              std::string::npos)
        << bad;
  }
  if (was_set) {
    ::setenv("COYOTE_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("COYOTE_THREADS");
  }

  // The same parser serves command-line flags, naming the flag; the
  // constructor enforces the cap for library callers.
  EXPECT_EQ(ThreadPool::parseThreadCount("8", "--threads"), 8u);
  EXPECT_NE(rejection([] {
              return ThreadPool::parseThreadCount("-1", "--threads");
            }).find("--threads"),
            std::string::npos);
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxThreads + 1),
               std::invalid_argument);
}

TEST(ThreadPool, NestedParallelForOnSamePoolFailsFast) {
  // Undocumented-deadlock regression guard: a nested call used to block
  // forever on submit_mutex_ (held by the outer job); now it throws a
  // clear std::invalid_argument, propagated like any job exception, at
  // every thread count -- including the single-thread inline path where
  // the deadlock itself never bites.
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.parallelFor(8,
                                  [&](std::size_t) {
                                    pool.parallelFor(
                                        2, [](std::size_t) {});
                                  }),
                 std::invalid_argument)
        << threads << " threads";
    // The pool survives the failed job and keeps scheduling.
    std::atomic<int> ok{0};
    pool.parallelFor(5, [&](std::size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 5);
  }
}

TEST(ThreadPool, NestingAcrossDistinctPoolsIsAllowed) {
  ThreadPool outer(3);
  ThreadPool inner(2);
  std::vector<std::atomic<int>> hits(6 * 4);
  outer.parallelFor(6, [&](std::size_t i) {
    inner.parallelFor(4,
                      [&](std::size_t j) { hits[i * 4 + j].fetch_add(1); });
  });
  for (std::size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "slot " << k;
  }
  // The marker unwinds correctly: both pools accept fresh top-level jobs.
  std::atomic<int> ok{0};
  outer.parallelFor(3, [&](std::size_t) { ++ok; });
  inner.parallelFor(3, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 6);
}

TEST(ThreadPool, ResultsIndependentOfThreadCount) {
  // Same indexed-slot pattern the evaluator uses: writes are per-index, so
  // any thread count produces the identical result vector.
  constexpr std::size_t kN = 257;
  std::vector<double> reference(kN, 0.0);
  for (std::size_t i = 0; i < kN; ++i) {
    reference[i] = static_cast<double>(i) * 1.25 + 0.5;
  }
  for (const unsigned threads : {1u, 2u, 5u, 8u}) {
    ThreadPool pool(threads);
    std::vector<double> out(kN, 0.0);
    pool.parallelFor(kN, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.25 + 0.5;
    });
    EXPECT_EQ(out, reference) << threads << " threads";
  }
}

}  // namespace
}  // namespace coyote::util
