// Differential tests for incremental re-routing and the flat SPF kernel.
//
// RoutingMatrix::rerouted must return bit for bit what a from-scratch
// single_path build returns under the union failure set — OD rows, CSR
// and CSC arenas — and raise the same netmon::Error when a failure set
// disconnects an OD pair. SpfGraph's Dijkstra must reproduce a plain
// priority-queue Dijkstra over the Graph (kept here as the reference)
// on graphs with many equal-cost ties, where only the lower-link-id
// tie-break decides the parent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "routing/routing_matrix.hpp"
#include "routing/spf.hpp"
#include "topo/abilene.hpp"
#include "topo/geant.hpp"
#include "topo/hierarchical.hpp"
#include "traffic/fanout.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netmon::routing {
namespace {

// The reference: Dijkstra straight over the Graph's adjacency lists,
// skipping failed links by hash lookup, with the same relaxation rule.
SpfResult reference_dijkstra(const topo::Graph& graph, topo::NodeId source,
                             const LinkSet& failed) {
  SpfResult out;
  out.source = source;
  out.dist.assign(graph.node_count(),
                  std::numeric_limits<double>::infinity());
  out.parent.assign(graph.node_count(), topo::kInvalidId);
  out.dist[source] = 0.0;
  using Item = std::pair<double, topo::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  queue.emplace(0.0, source);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > out.dist[u]) continue;
    for (topo::LinkId id : graph.out_links(u)) {
      if (failed.count(id)) continue;
      const topo::Link& l = graph.link(id);
      const double nd = d + l.igp_weight;
      if (nd < out.dist[l.dst] ||
          (nd == out.dist[l.dst] && id < out.parent[l.dst])) {
        out.dist[l.dst] = nd;
        out.parent[l.dst] = id;
        queue.emplace(nd, l.dst);
      }
    }
  }
  return out;
}

std::vector<OdPair> all_pairs(const topo::Graph& graph) {
  std::vector<OdPair> ods;
  for (topo::NodeId s = 0; s < graph.node_count(); ++s)
    for (topo::NodeId t = 0; t < graph.node_count(); ++t)
      if (s != t) ods.push_back({s, t});
  return ods;
}

void expect_same_matrix(const RoutingMatrix& actual,
                        const RoutingMatrix& expected) {
  EXPECT_EQ(actual.ods(), expected.ods());
  EXPECT_EQ(actual.failed(), expected.failed());
  EXPECT_EQ(actual.is_ecmp(), expected.is_ecmp());
  const std::pair<const linalg::SparseCsr*, const linalg::SparseCsr*>
      views[] = {{&actual.csr(), &expected.csr()},
                 {&actual.csc(), &expected.csc()}};
  for (const auto& [a_ptr, b_ptr] : views) {
    const linalg::SparseCsr& a = *a_ptr;
    const linalg::SparseCsr& b = *b_ptr;
    EXPECT_EQ(a.cols(), b.cols());
    EXPECT_TRUE(std::ranges::equal(a.row_ptr(), b.row_ptr()));
    EXPECT_TRUE(std::ranges::equal(a.col_idx(), b.col_idx()));
    EXPECT_TRUE(std::ranges::equal(a.values(), b.values()));
  }
}

/// Routes `ods` from scratch under base + extra and by rerouting `base`;
/// both must agree on the matrix or on the error. Returns whether the
/// set disconnected an OD pair.
bool check_reroute(const topo::Graph& graph, const RoutingMatrix& base,
                   const LinkSet& extra) {
  LinkSet all = base.failed();
  all.insert(extra.begin(), extra.end());
  std::optional<RoutingMatrix> expected;
  std::string expected_error;
  try {
    expected.emplace(RoutingMatrix::single_path(graph, base.ods(), all));
  } catch (const Error& error) {
    expected_error = error.what();
  }
  std::optional<RoutingMatrix> actual;
  std::string actual_error;
  try {
    actual.emplace(base.rerouted(graph, extra));
  } catch (const Error& error) {
    actual_error = error.what();
  }
  EXPECT_EQ(actual_error, expected_error);
  EXPECT_EQ(actual.has_value(), expected.has_value());
  if (actual && expected) expect_same_matrix(*actual, *expected);
  return !expected.has_value();
}

/// 1-5 distinct links: one time in ten every in-link of a random OD
/// destination (cutting it off when that is at most 5 links), otherwise
/// mostly links the task crosses (so rows re-route) and sometimes any
/// link of the graph.
LinkSet random_failures(Rng& rng, const topo::Graph& graph,
                        const RoutingMatrix& base,
                        const std::vector<topo::LinkId>& used) {
  if (rng.bernoulli(0.1)) {
    const std::vector<topo::LinkId>& ins =
        graph.in_links(base.od(rng.below(base.od_count())).dst);
    if (!ins.empty() && ins.size() <= 5) return LinkSet(ins.begin(), ins.end());
  }
  LinkSet failed;
  const std::size_t size = 1 + rng.below(5);
  while (failed.size() < size) {
    failed.insert(rng.bernoulli(0.8)
                      ? used[rng.below(used.size())]
                      : static_cast<topo::LinkId>(
                            rng.below(graph.link_count())));
  }
  return failed;
}

void differential(const topo::Graph& graph, std::vector<OdPair> ods,
                  std::uint64_t seed, int sets) {
  const RoutingMatrix base = RoutingMatrix::single_path(graph, ods);
  const std::vector<topo::LinkId> used = base.links_used();
  Rng rng(seed);
  int disconnected = 0;
  int chained = 0;
  for (int i = 0; i < sets; ++i) {
    const LinkSet extra = random_failures(rng, graph, base, used);
    if (check_reroute(graph, base, extra)) {
      ++disconnected;
      continue;
    }
    // Reroute again from the rerouted matrix: base failures non-empty.
    if (i % 4 == 0) {
      const RoutingMatrix first = base.rerouted(graph, extra);
      check_reroute(graph, first, random_failures(rng, graph, base, used));
      ++chained;
    }
    if (::testing::Test::HasFailure()) break;
  }
  // Failing every out-link of a source disconnects all its OD pairs.
  const std::vector<topo::LinkId>& outs = graph.out_links(ods.front().src);
  EXPECT_TRUE(
      check_reroute(graph, base, LinkSet(outs.begin(), outs.end())));
  // An empty set copies the matrix.
  EXPECT_FALSE(check_reroute(graph, base, {}));
  EXPECT_GT(disconnected, 0) << "no random set disconnected an OD pair";
  EXPECT_GT(chained, 0);
}

TEST(Reroute, GeantMatchesFromScratchRouting) {
  const topo::GeantNetwork net = topo::make_geant();
  differential(net.graph, all_pairs(net.graph), 101, 1000);
}

TEST(Reroute, AbileneMatchesFromScratchRouting) {
  const topo::AbileneNetwork net = topo::make_abilene();
  differential(net.graph, all_pairs(net.graph), 202, 1000);
}

TEST(Reroute, HierarchicalFabricMatchesFromScratchRouting) {
  const topo::HierarchicalNetwork net = topo::make_hierarchical();
  traffic::FanoutOptions fanout;
  fanout.od_count = 2000;
  std::vector<OdPair> ods;
  for (const traffic::Demand& d : traffic::gravity_fanout(net, fanout))
    ods.push_back(d.od);
  differential(net.graph, std::move(ods), 303, 1000);
}

TEST(Reroute, EcmpMatricesAreNotRerouted) {
  const topo::GeantNetwork net = topo::make_geant();
  const RoutingMatrix ecmp = RoutingMatrix::ecmp(net.graph, {{0, 1}});
  EXPECT_TRUE(ecmp.is_ecmp());
  EXPECT_THROW(ecmp.rerouted(net.graph, {0}), Error);
}

// Random multigraphs with weights in {1, 2}: most nodes are reached over
// several equal-cost paths, and parallel links tie on the same hop.
TEST(SpfKernel, MatchesReferenceDijkstraUnderEqualCostTies) {
  Rng rng(404);
  int ties = 0;
  for (int trial = 0; trial < 200; ++trial) {
    topo::Graph graph;
    const std::size_t nodes = 5 + rng.below(40);
    for (std::size_t v = 0; v < nodes; ++v)
      graph.add_node("N" + std::to_string(v));
    const std::size_t links = nodes * (1 + rng.below(5));
    for (std::size_t i = 0; i < links; ++i) {
      const auto a = static_cast<topo::NodeId>(rng.below(nodes));
      const auto b = static_cast<topo::NodeId>(rng.below(nodes));
      if (a != b) graph.add_link(a, b, 1e9, 1.0 + rng.below(2));
    }
    if (graph.link_count() == 0) continue;
    LinkSet failed;
    const std::size_t down = rng.below(4);
    for (std::size_t i = 0; i < down; ++i)
      failed.insert(static_cast<topo::LinkId>(rng.below(graph.link_count())));
    failed.insert(topo::kInvalidId);  // out-of-range ids are ignored

    const SpfGraph kernel(graph, failed);
    SpfResult actual;
    for (topo::NodeId source = 0; source < nodes; ++source) {
      kernel.run(source, actual);
      const SpfResult expected = reference_dijkstra(graph, source, failed);
      ASSERT_EQ(actual.source, expected.source);
      ASSERT_EQ(actual.dist, expected.dist) << "trial " << trial;
      ASSERT_EQ(actual.parent, expected.parent) << "trial " << trial;
      // Count nodes whose parent was decided by the id tie-break.
      for (topo::NodeId v = 0; v < nodes; ++v) {
        int best = 0;
        for (topo::LinkId id : graph.in_links(v)) {
          const topo::Link& l = graph.link(id);
          if (!failed.count(id) && std::isfinite(expected.dist[l.src]) &&
              expected.dist[l.src] + l.igp_weight == expected.dist[v])
            ++best;
        }
        if (best > 1) ++ties;
      }
    }
  }
  EXPECT_GT(ties, 1000);
}

}  // namespace
}  // namespace netmon::routing
