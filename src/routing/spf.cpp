#include "routing/spf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/error.hpp"

namespace netmon::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Dijkstra over reversed links: distance from every node *to* `sink`.
// Used by ECMP to identify links on shortest paths.
std::vector<double> reverse_distances(const topo::Graph& graph,
                                      topo::NodeId sink,
                                      const LinkSet& failed) {
  std::vector<double> dist(graph.node_count(), kInf);
  using Item = std::pair<double, topo::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  dist[sink] = 0.0;
  queue.emplace(0.0, sink);
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > dist[v]) continue;
    for (topo::LinkId id : graph.in_links(v)) {
      if (failed.count(id)) continue;
      const topo::Link& l = graph.link(id);
      const double nd = d + l.igp_weight;
      if (nd < dist[l.src]) {
        dist[l.src] = nd;
        queue.emplace(nd, l.src);
      }
    }
  }
  return dist;
}
}  // namespace

bool SpfResult::reachable(topo::NodeId v) const {
  return v < dist.size() && std::isfinite(dist[v]);
}

SpfGraph::SpfGraph(const topo::Graph& graph, const LinkSet& failed) {
  std::vector<bool> down(graph.link_count(), false);
  for (topo::LinkId id : failed)
    if (id < down.size()) down[id] = true;
  first_arc_.reserve(graph.node_count() + 1);
  arcs_.reserve(graph.link_count());
  first_arc_.push_back(0);
  for (topo::NodeId u = 0; u < graph.node_count(); ++u) {
    for (topo::LinkId id : graph.out_links(u)) {
      if (down[id]) continue;
      const topo::Link& l = graph.links()[id];
      arcs_.push_back(Arc{l.dst, id, l.igp_weight});
    }
    first_arc_.push_back(static_cast<std::uint32_t>(arcs_.size()));
  }
}

void SpfGraph::run(topo::NodeId source, SpfResult& out) const {
  NETMON_REQUIRE(source < node_count(), "SPF source out of range");
  out.source = source;
  out.dist.assign(node_count(), kInf);
  out.parent.assign(node_count(), topo::kInvalidId);
  out.dist[source] = 0.0;

  double* const dist = out.dist.data();
  topo::LinkId* const parent = out.parent.data();
  using Item = std::pair<double, topo::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  queue.emplace(0.0, source);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;
    const Arc* const end = arcs_.data() + first_arc_[u + 1];
    for (const Arc* arc = arcs_.data() + first_arc_[u]; arc != end; ++arc) {
      const double nd = d + arc->weight;
      if (nd < dist[arc->dst] ||
          (nd == dist[arc->dst] && arc->id < parent[arc->dst])) {
        dist[arc->dst] = nd;
        parent[arc->dst] = arc->id;
        queue.emplace(nd, arc->dst);
      }
    }
  }
}

SpfResult dijkstra(const topo::Graph& graph, topo::NodeId source,
                   const LinkSet& failed) {
  SpfResult result;
  SpfGraph(graph, failed).run(source, result);
  return result;
}

void extract_path_into(const SpfResult& spf, const topo::Graph& graph,
                       topo::NodeId dst, std::vector<topo::LinkId>& out) {
  NETMON_REQUIRE(dst < graph.node_count(), "path destination out of range");
  NETMON_REQUIRE(spf.reachable(dst), "destination unreachable: " +
                                         graph.node(dst).name);
  const std::size_t begin = out.size();
  topo::NodeId v = dst;
  while (v != spf.source) {
    const topo::LinkId id = spf.parent[v];
    out.push_back(id);
    v = graph.link(id).src;
  }
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
}

std::vector<topo::LinkId> extract_path(const SpfResult& spf,
                                       const topo::Graph& graph,
                                       topo::NodeId dst) {
  std::vector<topo::LinkId> path;
  extract_path_into(spf, graph, dst, path);
  return path;
}

std::vector<std::pair<topo::LinkId, double>> ecmp_fractions(
    const topo::Graph& graph, topo::NodeId src, topo::NodeId dst,
    const LinkSet& failed) {
  NETMON_REQUIRE(src < graph.node_count(), "ECMP source out of range");
  NETMON_REQUIRE(dst < graph.node_count(), "ECMP destination out of range");
  const SpfResult fwd = dijkstra(graph, src, failed);
  if (!fwd.reachable(dst)) return {};
  const std::vector<double> to_dst = reverse_distances(graph, dst, failed);
  const double total = fwd.dist[dst];

  // A link u->v is on a shortest path iff dist(src,u) + w + dist(v,dst)
  // equals the shortest distance (within numerical slack).
  auto on_shortest = [&](const topo::Link& l) {
    if (!std::isfinite(fwd.dist[l.src]) || !std::isfinite(to_dst[l.dst]))
      return false;
    const double through = fwd.dist[l.src] + l.igp_weight + to_dst[l.dst];
    return std::abs(through - total) <= 1e-9 * std::max(1.0, total);
  };

  // Process nodes in increasing distance from src; split each node's
  // incoming fraction evenly across its shortest-path out-links.
  std::vector<topo::NodeId> order(graph.node_count());
  for (topo::NodeId v = 0; v < order.size(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&](topo::NodeId a, topo::NodeId b) {
    return fwd.dist[a] < fwd.dist[b];
  });

  std::vector<double> node_fraction(graph.node_count(), 0.0);
  std::vector<double> link_fraction(graph.link_count(), 0.0);
  node_fraction[src] = 1.0;
  for (topo::NodeId u : order) {
    if (node_fraction[u] <= 0.0 || u == dst) continue;
    std::vector<topo::LinkId> next;
    for (topo::LinkId id : graph.out_links(u)) {
      if (failed.count(id)) continue;
      if (on_shortest(graph.link(id))) next.push_back(id);
    }
    if (next.empty()) continue;  // u is not on any shortest path to dst
    const double share = node_fraction[u] / static_cast<double>(next.size());
    for (topo::LinkId id : next) {
      link_fraction[id] += share;
      node_fraction[graph.link(id).dst] += share;
    }
  }

  std::vector<std::pair<topo::LinkId, double>> result;
  for (topo::LinkId id = 0; id < link_fraction.size(); ++id) {
    if (link_fraction[id] > 0.0) result.emplace_back(id, link_fraction[id]);
  }
  return result;
}

}  // namespace netmon::routing
