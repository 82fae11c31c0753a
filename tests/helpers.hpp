// Shared helpers for netmon tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "opt/objective.hpp"
#include "topo/graph.hpp"

namespace netmon::test {

/// The current value of counter `name` in `registry` (0 when absent).
inline std::uint64_t counter(const obs::MetricsRegistry& registry,
                             const std::string& name) {
  const obs::RegistrySnapshot snapshot = registry.snapshot();
  const obs::MetricSnapshot* metric = snapshot.find(name);
  return metric != nullptr ? static_cast<std::uint64_t>(metric->value) : 0;
}

/// A 4-node line topology A -> B -> C -> D (duplex links, weight 1,
/// capacity 1 Gb/s). Nodes get masses 4,3,2,1.
inline topo::Graph line_graph() {
  topo::Graph g;
  const auto a = g.add_node("A", 4.0);
  const auto b = g.add_node("B", 3.0);
  const auto c = g.add_node("C", 2.0);
  const auto d = g.add_node("D", 1.0);
  g.add_duplex(a, b, 1e9, 1.0);
  g.add_duplex(b, c, 1e9, 1.0);
  g.add_duplex(c, d, 1e9, 1.0);
  return g;
}

/// A diamond: S -> {X, Y} -> T with equal weights (two equal-cost paths).
inline topo::Graph diamond_graph() {
  topo::Graph g;
  const auto s = g.add_node("S");
  const auto x = g.add_node("X");
  const auto y = g.add_node("Y");
  const auto t = g.add_node("T");
  g.add_duplex(s, x, 1e9, 1.0);
  g.add_duplex(s, y, 1e9, 1.0);
  g.add_duplex(x, t, 1e9, 1.0);
  g.add_duplex(y, t, 1e9, 1.0);
  return g;
}

/// Central-difference numerical gradient of an objective.
inline std::vector<double> numeric_gradient(const opt::Objective& f,
                                            std::vector<double> p,
                                            double h = 1e-7) {
  std::vector<double> g(p.size());
  for (std::size_t j = 0; j < p.size(); ++j) {
    const double orig = p[j];
    p[j] = orig + h;
    const double up = f.value(p);
    p[j] = orig - h;
    const double down = f.value(p);
    p[j] = orig;
    g[j] = (up - down) / (2.0 * h);
  }
  return g;
}

/// Central-difference second derivative along a direction.
inline double numeric_directional_second(const opt::Objective& f,
                                         const std::vector<double>& p,
                                         const std::vector<double>& s,
                                         double h = 1e-4) {
  auto at = [&](double t) {
    std::vector<double> q(p.size());
    for (std::size_t j = 0; j < p.size(); ++j) q[j] = p[j] + t * s[j];
    return f.value(q);
  };
  return (at(h) - 2.0 * at(0.0) + at(-h)) / (h * h);
}

}  // namespace netmon::test
