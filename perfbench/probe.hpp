// Outside-in timing of the library's layers.
//
// The benchmark never instruments the library itself: every public call it
// makes into a layer goes through Probe::call(), which records, per call,
//
//  * wall time (steady_clock);
//  * process CPU: the getrusage(RUSAGE_SELF) user+sys delta, i.e. summed
//    over every thread;
//  * the growth of the peak-RSS high-water mark (ru_maxrss);
//  * the lp::statsSnapshot() delta -- a solve that hits the iteration
//    limit fails the operation.
//
// These readings cost two getrusage calls and two counter snapshots per
// call, and the untraced run keeps them: the serve workload's end-to-end
// time and CPU are built from per-event medians. Tracing adds the
// grouping spans (a plan pass, a margin step, one serve event) that give
// every operation its parent and group id.
//
// Spans stay in memory; writeChromeTrace() emits them as Chrome
// trace-event JSON (open in chrome://tracing or https://ui.perfetto.dev).
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "lp/stats.hpp"

namespace perfbench {

/// Seconds since an arbitrary fixed origin (steady_clock).
[[nodiscard]] double nowSeconds();
/// Process user+sys CPU seconds (all threads).
[[nodiscard]] double processCpuSeconds();
/// Peak resident set size so far, MiB.
[[nodiscard]] double peakRssMb();

/// One timed layer call (an "operation").
struct OpRecord {
  std::string layer;  ///< module name: topo, dag, split, optu, eval, ...
  std::string name;   ///< the public call, e.g. "core::optimizeSplitting"
  int group = 0;      ///< margin step / serve event id
  int parent = -1;    ///< index of the enclosing grouping span
  double start_s = 0.0;
  double end_s = 0.0;
  double cpu_s = 0.0;
  double rss_growth_mb = 0.0;
  coyote::lp::StatsSnapshot lp;
  bool failed = false;
  std::string failure;  ///< first reason, when failed

  [[nodiscard]] double wallSeconds() const { return end_s - start_s; }
};

/// A grouping span: a pass, a margin step, a serve event.
struct GroupSpan {
  std::string name;
  int group = 0;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

class Probe {
 public:
  explicit Probe(bool traced) : traced_(traced), origin_s_(nowSeconds()) {}

  /// Runs `f` as one operation of `layer` and returns its result. An
  /// exception fails the operation and propagates. A solve inside the call
  /// that hits the LP iteration limit fails the operation too; its result
  /// is still returned.
  template <class F>
  auto call(const char* layer, const char* name, F&& f) {
    const std::size_t idx = begin(layer, name);
    try {
      if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
        f();
        end(idx);
      } else {
        auto out = f();
        end(idx);
        return out;
      }
    } catch (const std::exception& e) {
      end(idx);
      fail(idx, std::string("threw: ") + e.what());
      throw;
    }
  }

  /// Marks the latest operation failed; the first reason is kept.
  void failLast(const std::string& why) { fail(ops_.size() - 1, why); }

  /// Opens a grouping span; operations until the matching close() are its
  /// children and carry its group id. Untraced, nothing is recorded (it
  /// returns -1) but the group id still propagates to operations.
  int open(const std::string& name, int group);
  void close(int span);

  [[nodiscard]] const std::vector<OpRecord>& ops() const { return ops_; }
  [[nodiscard]] const std::vector<GroupSpan>& groups() const {
    return groups_;
  }

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microseconds since the probe was created). Returns false when the
  /// file cannot be written.
  bool writeChromeTrace(const std::string& path) const;

 private:
  std::size_t begin(const char* layer, const char* name);
  void end(std::size_t idx);
  void fail(std::size_t idx, const std::string& why);

  bool traced_;
  double origin_s_;
  std::vector<OpRecord> ops_;
  std::vector<GroupSpan> groups_;
  std::vector<int> open_;  ///< stack of open grouping spans
  int group_ = 0;          ///< current group id
  // Begin-of-call readings of the operation in flight (calls never nest).
  double cpu_begin_ = 0.0;
  double rss_begin_ = 0.0;
  coyote::lp::StatsSnapshot lp_begin_;
};

}  // namespace perfbench
