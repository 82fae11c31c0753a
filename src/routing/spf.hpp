// Shortest-path-first routing (IS-IS style) over a topo::Graph.
//
// Provides single-source Dijkstra with deterministic tie-breaking, path
// extraction, and equal-cost multipath (ECMP) split fractions. Link
// failures are modelled by an exclusion set so that rerouting events — the
// paper's motivation for re-running the placement optimization — are a
// recompute with a different exclusion set.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "topo/graph.hpp"

namespace netmon::routing {

/// Set of failed (excluded) links.
using LinkSet = std::unordered_set<topo::LinkId>;

/// Result of a single-source shortest-path computation.
struct SpfResult {
  topo::NodeId source = topo::kInvalidId;
  /// dist[v]: IGP distance from source to v; +inf when unreachable.
  std::vector<double> dist;
  /// parent[v]: the link over which the (deterministically chosen)
  /// shortest path reaches v; kInvalidId at the source / unreachable nodes.
  std::vector<topo::LinkId> parent;

  /// Whether node v is reachable from the source.
  bool reachable(topo::NodeId v) const;
};

/// The SPF kernel's view of a graph under one failure set: a flat
/// out-adjacency holding one (dst, link id, weight) arc per surviving
/// link, grouped by source node in out_links() order. Building it costs
/// one pass over the links (failed ones dropped through a bitmap), after
/// which every Dijkstra from it touches neither a Link struct nor a hash
/// set — so routing many sources builds it once and runs it per source.
class SpfGraph {
 public:
  SpfGraph(const topo::Graph& graph, const LinkSet& failed);

  /// Dijkstra from `source` into a caller-owned result: `out`'s vectors
  /// are assign()ed in place, so running many sources through one
  /// SpfResult reuses its buffers after the first call. A node's
  /// distance improves on `nd < dist`, and an equal distance moves its
  /// parent to the lower link id, making single-path routing
  /// deterministic.
  void run(topo::NodeId source, SpfResult& out) const;

  std::size_t node_count() const noexcept { return first_arc_.size() - 1; }

 private:
  struct Arc {
    topo::NodeId dst;
    topo::LinkId id;
    double weight;
  };
  /// Arcs of node v are arcs_[first_arc_[v], first_arc_[v + 1]).
  std::vector<std::uint32_t> first_arc_;
  std::vector<Arc> arcs_;
};

/// Runs Dijkstra from `source`, ignoring links in `failed` (one SpfGraph
/// built and run once; routing many sources should share a SpfGraph).
SpfResult dijkstra(const topo::Graph& graph, topo::NodeId source,
                   const LinkSet& failed = {});

/// Extracts the single shortest path source->dst as a sequence of link ids
/// (in travel order). Throws netmon::Error if dst is unreachable.
std::vector<topo::LinkId> extract_path(const SpfResult& spf,
                                       const topo::Graph& graph,
                                       topo::NodeId dst);

/// Appends the path (travel order) to `out` instead of allocating a
/// fresh vector — paths from many ODs share one arena.
void extract_path_into(const SpfResult& spf, const topo::Graph& graph,
                       topo::NodeId dst, std::vector<topo::LinkId>& out);

/// Equal-cost multipath fractions for one OD pair: for every link on some
/// shortest src->dst path, the fraction of the OD traffic crossing it under
/// even per-node splitting. Fractions on the links entering dst sum to 1.
/// Returns an empty vector when dst is unreachable.
std::vector<std::pair<topo::LinkId, double>> ecmp_fractions(
    const topo::Graph& graph, topo::NodeId src, topo::NodeId dst,
    const LinkSet& failed = {});

}  // namespace netmon::routing
