// Hot accessors allocate nothing, and their checks still fire.
//
// The contract helpers (util/require.hpp) take the message as a
// `const char*` when it is a literal, so a passing check never builds a
// std::string. This suite replaces the global operator new with a
// counting one and asserts that loops over the innermost-loop accessors
// -- Graph::edge, RoutingConfig::ratio, TrafficMatrix::at -- perform zero
// heap allocations, and that out-of-range calls still throw the same
// exception types with the same messages.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "core/dag_builder.hpp"
#include "routing/config.hpp"
#include "tm/traffic_matrix.hpp"
#include "topo/zoo.hpp"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace coyote {
namespace {

/// Heap allocations made while running `body`.
template <typename Body>
long allocationsDuring(Body&& body) {
  const long before = g_allocations.load();
  body();
  return g_allocations.load() - before;
}

/// The what() of the exception `call` throws as E, or "" if none.
template <typename E, typename Call>
std::string messageOf(Call&& call) {
  try {
    call();
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

// A global sink keeps the compiler from eliding the allocation.
std::string g_sink;

TEST(Allocation, CounterSeesAllocations) {
  EXPECT_GE(allocationsDuring([] { g_sink = std::string(100, 'x'); }), 1);
  EXPECT_EQ(g_sink.size(), 100u);
}

TEST(Allocation, GraphEdgeLoopAllocatesNothing) {
  const Graph g = topo::makeZoo("Geant");
  (void)g.outEdges(0);  // the CSR adjacency is built on first access
  double sum = 0.0;
  const long n = allocationsDuring([&] {
    for (int rep = 0; rep < 100; ++rep) {
      for (EdgeId e = 0; e < g.numEdges(); ++e) sum += g.edge(e).capacity;
      for (NodeId v = 0; v < g.numNodes(); ++v) sum += g.outEdges(v).size();
    }
  });
  EXPECT_EQ(n, 0);
  EXPECT_GT(sum, 0.0);
}

TEST(Allocation, RoutingConfigRatioLoopAllocatesNothing) {
  const Graph g = topo::makeZoo("Geant");
  const auto cfg =
      routing::RoutingConfig::uniform(g, core::augmentedDagsShared(g));
  double sum = 0.0;
  const long n = allocationsDuring([&] {
    for (int rep = 0; rep < 10; ++rep) {
      for (NodeId t = 0; t < g.numNodes(); ++t) {
        for (EdgeId e = 0; e < g.numEdges(); ++e) sum += cfg.ratio(t, e);
      }
    }
  });
  EXPECT_EQ(n, 0);
  EXPECT_GT(sum, 0.0);
}

TEST(Allocation, TrafficMatrixAtLoopAllocatesNothing) {
  const Graph g = topo::makeZoo("Geant");
  const tm::TrafficMatrix d = tm::gravityMatrix(g, 1.0);
  double sum = 0.0;
  const long n = allocationsDuring([&] {
    for (int rep = 0; rep < 10; ++rep) {
      for (NodeId s = 0; s < g.numNodes(); ++s) {
        for (NodeId t = 0; t < g.numNodes(); ++t) sum += d.at(s, t);
      }
    }
  });
  EXPECT_EQ(n, 0);
  EXPECT_GT(sum, 0.0);
}

TEST(Allocation, OutOfRangeCallsStillThrowTheSameMessages) {
  const Graph g = topo::makeZoo("Geant");
  const int n = g.numNodes();
  const int m = g.numEdges();
  const auto cfg =
      routing::RoutingConfig::uniform(g, core::augmentedDagsShared(g));
  const tm::TrafficMatrix d(n);

  EXPECT_EQ(messageOf<std::invalid_argument>([&] { (void)g.edge(m); }),
            "edge id out of range");
  EXPECT_EQ(messageOf<std::invalid_argument>([&] { (void)g.edge(-1); }),
            "edge id out of range");
  EXPECT_EQ(messageOf<std::invalid_argument>([&] { (void)g.outEdges(n); }),
            "node id out of range");
  EXPECT_EQ(messageOf<std::invalid_argument>([&] { (void)cfg.ratio(n, 0); }),
            "destination out of range");
  EXPECT_EQ(messageOf<std::invalid_argument>([&] { (void)cfg.ratio(0, m); }),
            "edge out of range");
  EXPECT_EQ(messageOf<std::invalid_argument>([&] { (void)d.at(n, 0); }),
            "demand index out of range");
  EXPECT_EQ(messageOf<std::invalid_argument>([] { require(false, "lit"); }),
            "lit");
  EXPECT_EQ(messageOf<std::invalid_argument>(
                [] { require(false, std::string("built")); }),
            "built");
  EXPECT_EQ(messageOf<std::logic_error>([] { ensure(false, "lit"); }), "lit");
  EXPECT_EQ(messageOf<std::logic_error>(
                [] { ensure(false, std::string("built")); }),
            "built");
}

TEST(Allocation, ValidateStillReportsTheFailingNode) {
  const Graph g = topo::runningExample();
  routing::RoutingConfig cfg =
      routing::RoutingConfig::uniform(g, core::augmentedDagsShared(g));
  const NodeId t = *g.findNode("t");
  const NodeId s2 = *g.findNode("s2");
  const EdgeId e = cfg.dags()[t].outEdges(s2).front();
  cfg.setRatio(t, e, cfg.ratio(t, e) + 0.25);
  const std::string what =
      messageOf<std::logic_error>([&] { cfg.validate(g); });
  EXPECT_EQ(what.rfind("splitting ratios at node s2 toward t sum to ", 0), 0u)
      << what;
}

}  // namespace
}  // namespace coyote
