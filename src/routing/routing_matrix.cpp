#include "routing/routing_matrix.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace netmon::routing {

namespace {

using PairRows = std::vector<std::vector<std::pair<topo::LinkId, double>>>;
/// Per-row [begin, end) into a path arena.
using Spans = std::vector<std::pair<std::size_t, std::size_t>>;

/// Sorts row indices by source, stable within a source, so each distinct
/// source needs exactly one Dijkstra, reused in place.
void group_by_source(const std::vector<OdPair>& ods,
                     std::vector<std::size_t>& rows) {
  std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
    if (ods[a].src != ods[b].src) return ods[a].src < ods[b].src;
    return a < b;
  });
}

/// Routes `rows` (grouped by source) over `spf_graph`: each row's path
/// lands sorted in `arena` and its span in spans[row]. Throws at the
/// first row, in visiting order, whose destination is unreachable.
void route_rows(const SpfGraph& spf_graph, const topo::Graph& graph,
                const std::vector<OdPair>& ods,
                const std::vector<std::size_t>& rows,
                std::vector<topo::LinkId>& arena, Spans& spans) {
  SpfResult spf;
  for (std::size_t pos = 0; pos < rows.size(); ++pos) {
    const std::size_t k = rows[pos];
    if (pos == 0 || ods[k].src != ods[rows[pos - 1]].src)
      spf_graph.run(ods[k].src, spf);
    const std::size_t begin = arena.size();
    extract_path_into(spf, graph, ods[k].dst, arena);
    spans[k] = {begin, arena.size()};
    std::sort(arena.begin() + static_cast<std::ptrdiff_t>(begin),
              arena.end());
  }
}

}  // namespace

RoutingMatrix RoutingMatrix::single_path(const topo::Graph& graph,
                                         std::vector<OdPair> ods,
                                         const LinkSet& failed) {
  RoutingMatrix matrix;
  matrix.ods_ = std::move(ods);
  matrix.failed_ = failed;
  const std::size_t count = matrix.ods_.size();
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  group_by_source(matrix.ods_, order);

  // All paths land in one LinkId arena with per-row spans: allocation
  // count stays flat in the OD count (the arena grows O(log nnz) times).
  std::vector<topo::LinkId> arena;
  arena.reserve(count * 8);
  Spans spans(count);
  route_rows(SpfGraph(graph, failed), graph, matrix.ods_, order, arena,
             spans);

  linalg::CsrBuilder builder(graph.link_count());
  builder.reserve(count, arena.size());
  for (const auto& [begin, end] : spans) {
    for (std::size_t i = begin; i < end; ++i) builder.push(arena[i], 1.0);
    builder.finish_row();
  }
  matrix.csr_ = builder.build();
  matrix.csc_ = matrix.csr_.transpose();
  return matrix;
}

RoutingMatrix RoutingMatrix::rerouted(const topo::Graph& graph,
                                      const LinkSet& extra_failed) const {
  NETMON_REQUIRE(!ecmp_, "only single-path routing can be rerouted");
  NETMON_REQUIRE(graph.link_count() == link_count(),
                 "reroute graph does not match the routing matrix");
  RoutingMatrix matrix;
  matrix.ods_ = ods_;
  matrix.failed_ = failed_;
  // Rows crossing a newly failed link; every other row keeps its path.
  std::vector<bool> crosses(od_count(), false);
  for (topo::LinkId id : extra_failed) {
    if (!matrix.failed_.insert(id).second || id >= link_count()) continue;
    for (const auto& [k, fraction] : csc_.row(id)) crosses[k] = true;
  }
  std::vector<std::size_t> touched;
  for (std::size_t k = 0; k < od_count(); ++k)
    if (crosses[k]) touched.push_back(k);
  if (touched.empty()) {
    matrix.csr_ = csr_;
    matrix.csc_ = csc_;
    return matrix;
  }
  group_by_source(ods_, touched);

  // Same visiting order as single_path restricted to the touched rows;
  // the untouched ones stay reachable, so a disconnection throws for the
  // same row, with the same message, as the from-scratch build.
  std::vector<topo::LinkId> arena;
  Spans spans(od_count());
  route_rows(SpfGraph(graph, matrix.failed_), graph, ods_, touched, arena,
             spans);

  linalg::CsrBuilder builder(link_count());
  builder.reserve(od_count(), csr_.nnz() + arena.size());
  for (std::size_t k = 0; k < od_count(); ++k) {
    if (crosses[k]) {
      for (std::size_t i = spans[k].first; i < spans[k].second; ++i)
        builder.push(arena[i], 1.0);
    } else {
      for (const auto& [link, fraction] : csr_.row(k))
        builder.push(link, fraction);
    }
    builder.finish_row();
  }
  matrix.csr_ = builder.build();
  matrix.csc_ = matrix.csr_.transpose();
  return matrix;
}

RoutingMatrix RoutingMatrix::ecmp(const topo::Graph& graph,
                                  std::vector<OdPair> ods,
                                  const LinkSet& failed) {
  RoutingMatrix matrix;
  matrix.ods_ = std::move(ods);
  matrix.failed_ = failed;
  matrix.ecmp_ = true;
  PairRows rows(matrix.ods_.size());
  for (std::size_t k = 0; k < matrix.ods_.size(); ++k) {
    auto row = ecmp_fractions(graph, matrix.ods_[k].src, matrix.ods_[k].dst,
                              failed);
    NETMON_REQUIRE(!row.empty(),
                   "OD pair destination unreachable: " +
                       graph.node(matrix.ods_[k].dst).name);
    std::sort(row.begin(), row.end());
    rows[k] = std::move(row);
  }
  matrix.csr_ = linalg::SparseCsr::from_rows(graph.link_count(), rows);
  matrix.csc_ = matrix.csr_.transpose();
  return matrix;
}

RoutingMatrix::RowView RoutingMatrix::row(std::size_t k) const {
  NETMON_REQUIRE(k < csr_.rows(), "OD row index out of range");
  return csr_.row(k);
}

RoutingMatrix::RowView RoutingMatrix::ods_on_link(topo::LinkId link) const {
  NETMON_REQUIRE(link < csc_.rows(), "link id out of range");
  return csc_.row(link);
}

double RoutingMatrix::fraction(std::size_t k, topo::LinkId link) const {
  const RowView r = row(k);
  const std::span<const linalg::SparseCsr::Index> cols = r.cols();
  const auto it = std::lower_bound(cols.begin(), cols.end(), link);
  if (it == cols.end() || *it != link) return 0.0;
  return r.values()[static_cast<std::size_t>(it - cols.begin())];
}

std::vector<topo::LinkId> RoutingMatrix::links_used() const {
  std::size_t used = 0;
  for (topo::LinkId id = 0; id < csc_.rows(); ++id) {
    if (!csc_.row(id).empty()) ++used;
  }
  std::vector<topo::LinkId> links;
  links.reserve(used);
  for (topo::LinkId id = 0; id < csc_.rows(); ++id) {
    if (!csc_.row(id).empty()) links.push_back(id);
  }
  return links;
}

}  // namespace netmon::routing
