#include "traffic/link_load.hpp"

#include <map>

#include "util/error.hpp"

namespace netmon::traffic {

LinkLoads link_loads(const topo::Graph& graph, const TrafficMatrix& tm,
                     const routing::LinkSet& failed) {
  LinkLoads loads(graph.link_count(), 0.0);
  // One Dijkstra per distinct source, all from one SpfGraph.
  std::map<topo::NodeId, std::vector<const Demand*>> by_source;
  for (const Demand& d : tm) by_source[d.od.src].push_back(&d);
  const routing::SpfGraph spf_graph(graph, failed);
  routing::SpfResult spf;
  for (const auto& [src, demands] : by_source) {
    spf_graph.run(src, spf);
    for (const Demand* d : demands) {
      for (topo::LinkId id : routing::extract_path(spf, graph, d->od.dst))
        loads[id] += d->pkt_per_sec;
    }
  }
  return loads;
}

LinkLoads link_loads_ecmp(const topo::Graph& graph, const TrafficMatrix& tm,
                          const routing::LinkSet& failed) {
  LinkLoads loads(graph.link_count(), 0.0);
  for (const Demand& d : tm) {
    const auto fractions =
        routing::ecmp_fractions(graph, d.od.src, d.od.dst, failed);
    NETMON_REQUIRE(!fractions.empty(), "demand destination unreachable: " +
                                           graph.node(d.od.dst).name);
    for (const auto& [id, frac] : fractions) loads[id] += d.pkt_per_sec * frac;
  }
  return loads;
}

double utilization(const topo::Graph& graph, topo::LinkId link,
                   const LinkLoads& loads, double mean_packet_bytes) {
  NETMON_REQUIRE(link < loads.size(), "link id out of range");
  NETMON_REQUIRE(mean_packet_bytes > 0.0, "mean packet size must be positive");
  const double bps = loads[link] * mean_packet_bytes * 8.0;
  return bps / graph.link(link).capacity_bps;
}

}  // namespace netmon::traffic
