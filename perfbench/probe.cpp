#include "probe.hpp"

#include <sys/resource.h>

#include <chrono>
#include <fstream>

#include "util/json.hpp"

namespace perfbench {

namespace json = coyote::util::json;

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

struct Usage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

Usage usage() {
  struct rusage u {};
  if (::getrusage(RUSAGE_SELF, &u) != 0) return {};
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  // ru_maxrss is in KiB on Linux.
  return {secs(u.ru_utime) + secs(u.ru_stime),
          static_cast<double>(u.ru_maxrss) / 1024.0};
}

}  // namespace

double processCpuSeconds() { return usage().cpu_s; }

double peakRssMb() { return usage().peak_rss_mb; }

std::size_t Probe::begin(const char* layer, const char* name) {
  OpRecord rec;
  rec.layer = layer;
  rec.name = name;
  rec.group = group_;
  rec.parent = open_.empty() ? -1 : open_.back();
  ops_.push_back(std::move(rec));
  const Usage u = usage();
  cpu_begin_ = u.cpu_s;
  rss_begin_ = u.peak_rss_mb;
  lp_begin_ = coyote::lp::statsSnapshot();
  // Read the clock last so the readings above are not charged to the call.
  ops_.back().start_s = nowSeconds();
  return ops_.size() - 1;
}

void Probe::end(std::size_t idx) {
  OpRecord& rec = ops_[idx];
  rec.end_s = nowSeconds();
  rec.lp = coyote::lp::statsSnapshot() - lp_begin_;
  const Usage u = usage();
  rec.cpu_s = u.cpu_s - cpu_begin_;
  rec.rss_growth_mb = u.peak_rss_mb - rss_begin_;
  if (rec.lp.iter_limit_solves > 0) {
    fail(idx, std::to_string(rec.lp.iter_limit_solves) +
                  " LP solve(s) hit the iteration limit");
  }
}

void Probe::fail(std::size_t idx, const std::string& why) {
  OpRecord& rec = ops_.at(idx);
  if (!rec.failed) rec.failure = why;
  rec.failed = true;
}

int Probe::open(const std::string& name, int group) {
  int idx = -1;
  if (traced_) {
    idx = static_cast<int>(groups_.size());
    GroupSpan span;
    span.name = name;
    span.group = group;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_s = nowSeconds();
    groups_.push_back(std::move(span));
  }
  open_.push_back(idx);
  group_ = group;
  return idx;
}

void Probe::close(int span) {
  if (span >= 0) groups_.at(span).end_s = nowSeconds();
  open_.pop_back();
  group_ = 0;
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (*it >= 0) {
      group_ = groups_[*it].group;
      break;
    }
  }
}

bool Probe::writeChromeTrace(const std::string& path) const {
  // Grouping spans come first so an operation's "parent" arg indexes them.
  json::Value events = json::Value::array();
  const auto micros = [this](double t) { return 1e6 * (t - origin_s_); };
  const auto event = [&](const std::string& name, const std::string& cat,
                         double start, double end, int group, int parent) {
    json::Value ev = json::Value::object();
    ev["name"] = name;
    ev["cat"] = cat;
    ev["ph"] = "X";
    ev["ts"] = micros(start);
    ev["dur"] = micros(end) - micros(start);
    ev["pid"] = 1;
    ev["tid"] = 1;
    json::Value args = json::Value::object();
    args["id"] = group;
    args["parent"] = parent;
    ev["args"] = std::move(args);
    return ev;
  };
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    const GroupSpan& g = groups_[i];
    json::Value ev = event(g.name, "group", g.start_s, g.end_s, g.group,
                           g.parent);
    ev["args"]["span"] = static_cast<int>(i);
    events.push_back(std::move(ev));
  }
  for (const OpRecord& op : ops_) {
    json::Value ev =
        event(op.name, op.layer, op.start_s, op.end_s, op.group, op.parent);
    ev["args"]["cpu_s"] = op.cpu_s;
    ev["args"]["rss_growth_mb"] = op.rss_growth_mb;
    ev["args"]["lp_solves"] = static_cast<double>(op.lp.solves);
    ev["args"]["lp_pivots"] = static_cast<double>(op.lp.iterations);
    if (op.failed) ev["args"]["failure"] = op.failure;
    events.push_back(std::move(ev));
  }
  json::Value doc = json::Value::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  std::ofstream out(path);
  out << doc.dump(0) << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
