#include "core/report.hpp"

#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace netmon::core {

namespace {

const char* status_name(opt::SolveStatus status) {
  switch (status) {
    case opt::SolveStatus::kOptimal: return "optimal";
    case opt::SolveStatus::kIterationLimit: return "iteration_limit";
    case opt::SolveStatus::kCancelled: return "cancelled";
    case opt::SolveStatus::kCertified: return "certified";
  }
  return "unknown";
}

}  // namespace

void write_report(std::ostream& out, const PlacementSolution& solution,
                  const topo::Graph& graph) {
  JsonWriter json(out);
  json.begin_object();
  json.key("status").value(status_name(solution.status));
  json.key("iterations").value(solution.iterations);
  json.key("release_events").value(solution.release_events);
  json.key("lambda").value(solution.lambda);
  json.key("budget_used").value(solution.budget_used);
  json.key("total_utility").value(solution.total_utility);

  json.key("monitors").begin_array();
  for (topo::LinkId id : solution.active_monitors) {
    json.begin_object();
    json.key("link").value(graph.link_name(id));
    json.key("link_id").value(static_cast<std::uint64_t>(id));
    json.key("rate").value(solution.rates[id]);
    json.end_object();
  }
  json.end_array();

  json.key("od_pairs").begin_array();
  for (const OdReport& od : solution.per_od) {
    json.begin_object();
    json.key("src").value(graph.node(od.od.src).name);
    json.key("dst").value(graph.node(od.od.dst).name);
    json.key("expected_packets").value(od.expected_packets);
    json.key("rho_approx").value(od.rho_approx);
    json.key("rho_exact").value(od.rho_exact);
    json.key("utility").value(od.utility);
    json.key("monitored_on").begin_array();
    for (topo::LinkId id : od.monitored_links)
      json.value(graph.link_name(id));
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << "\n";
}

std::string report_json(const PlacementSolution& solution,
                        const topo::Graph& graph) {
  std::ostringstream out;
  write_report(out, solution, graph);
  return out.str();
}

}  // namespace netmon::core
