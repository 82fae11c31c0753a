// The routing matrix R of the paper's formulation (§III).
//
// Rows are OD pairs, columns are links; entry r_{k,i} is the fraction of
// OD pair k's traffic crossing link i (1/0 under single-path routing,
// fractional under ECMP). Stored as one flat CSR arena plus its
// transpose (the CSC view) because the optimizer iterates both ways;
// both are linalg::SparseCsr, so the solver kernels (spmv et al.)
// operate on R directly.
#pragma once

#include <vector>

#include "linalg/sparse.hpp"
#include "routing/spf.hpp"
#include "topo/graph.hpp"

namespace netmon::routing {

/// An origin-destination pair. "Origin or destination could refer to any
/// end-host, network prefix, autonomous system" (paper §I) — here they are
/// topology nodes; prefix-level tasks map prefixes to nodes beforehand
/// (see netflow::EgressMap).
struct OdPair {
  topo::NodeId src = topo::kInvalidId;
  topo::NodeId dst = topo::kInvalidId;

  friend bool operator==(const OdPair&, const OdPair&) = default;
};

/// Sparse routing matrix over a fixed OD pair set: a thin wrapper around
/// one CSR (OD rows) / CSC (link columns) pair.
class RoutingMatrix {
 public:
  /// A (column, fraction) row slice of either orientation.
  using RowView = linalg::SparseCsr::RowView;

  /// Builds R with deterministic single shortest paths (r_{k,i} in {0,1}).
  /// Throws if any OD pair is unreachable. One SpfGraph serves the whole
  /// build; each distinct source runs one Dijkstra.
  static RoutingMatrix single_path(const topo::Graph& graph,
                                   std::vector<OdPair> ods,
                                   const LinkSet& failed = {});

  /// Builds R with ECMP fractions (r_{k,i} in (0,1]).
  static RoutingMatrix ecmp(const topo::Graph& graph, std::vector<OdPair> ods,
                            const LinkSet& failed = {});

  /// The same OD pairs routed around `extra_failed` on top of failed():
  /// bit for bit single_path(graph, ods(), failed() + extra_failed),
  /// including the netmon::Error a disconnected OD pair raises. Rows
  /// whose path avoids the new failures are copied; only the sources of
  /// rows crossing them run SPF again. This is exact: removing links
  /// never shortens a path, and the lowest-id link among a node's
  /// equal-cost in-links stays the lowest once others are gone. Only for
  /// single-path matrices, with the graph they were built on.
  RoutingMatrix rerouted(const topo::Graph& graph,
                         const LinkSet& extra_failed) const;

  /// The failure set the rows were routed around.
  const LinkSet& failed() const noexcept { return failed_; }
  /// Whether rows hold ECMP fractions rather than single paths.
  bool is_ecmp() const noexcept { return ecmp_; }

  /// Number of OD pairs (rows).
  std::size_t od_count() const noexcept { return csr_.rows(); }
  /// Number of links in the underlying graph (columns).
  std::size_t link_count() const noexcept { return csr_.cols(); }

  /// The OD pair of row k.
  const OdPair& od(std::size_t k) const { return ods_[k]; }
  /// All OD pairs in row order.
  const std::vector<OdPair>& ods() const noexcept { return ods_; }

  /// Sparse row k: (link id, fraction) pairs sorted by link id.
  RowView row(std::size_t k) const;

  /// Sparse column: (od index, fraction) pairs for one link, sorted by od.
  RowView ods_on_link(topo::LinkId link) const;

  /// Dense entry r_{k,i}; 0 when k does not traverse i. Binary search on
  /// the sorted link ids of row k.
  double fraction(std::size_t k, topo::LinkId link) const;

  /// Distinct links traversed by at least one OD pair, sorted by id —
  /// the set L of the paper.
  std::vector<topo::LinkId> links_used() const;

  /// R itself (OD rows x link columns) for the solver kernels.
  const linalg::SparseCsr& csr() const noexcept { return csr_; }
  /// R^T (link rows x OD columns) — the CSC view.
  const linalg::SparseCsr& csc() const noexcept { return csc_; }

 private:
  RoutingMatrix() = default;

  std::vector<OdPair> ods_;
  LinkSet failed_;
  bool ecmp_ = false;
  linalg::SparseCsr csr_;
  linalg::SparseCsr csc_;
};

}  // namespace netmon::routing
