// Shared helpers for netmon tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/utility.hpp"
#include "obs/metrics.hpp"
#include "opt/constraints.hpp"
#include "opt/objective.hpp"
#include "topo/graph.hpp"
#include "util/rng.hpp"

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

/// A placement-shaped instance whose optimum pins at least 90% of its
/// coordinates at 0: one log-utility term per variable, a tenth of them
/// with a steep utility (eps ~ 1e-3) and the rest nearly flat (eps ~ 1),
/// plus n/4 flat terms shared by two or three variables, loads in
/// [1, 10] and a budget that affords rates around 1% on the steep tenth.
/// The start point (uniform scaling of alpha) has every rate above 0.
struct SparseOptimum {
  opt::SeparableConcaveObjective objective;
  opt::BoxBudgetConstraints constraints;
};

inline SparseOptimum sparse_optimum_instance(std::size_t n,
                                             std::uint64_t seed) {
  Rng rng(seed);
  opt::SeparableConcaveObjective::SparseRows rows;
  std::vector<std::shared_ptr<const opt::Concave1d>> utilities;
  std::vector<double> u(n), alpha(n, 1.0);
  double theta = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const bool steep = j % 10 == 0;
    u[j] = rng.uniform(1.0, 10.0);
    if (steep) theta += 0.01 * u[j];
    rows.push_back({{j, 1.0}});
    utilities.push_back(std::make_shared<core::LogUtility>(
        steep ? rng.uniform(1e-3, 2e-3) : rng.uniform(0.5, 1.0)));
  }
  for (std::size_t k = 0; k < n / 4; ++k) {
    opt::SeparableConcaveObjective::SparseRows::value_type row;
    const std::size_t touches = 2 + rng.below(2);
    for (std::size_t t = 0; t < touches; ++t) {
      const std::size_t col = rng.below(n);
      bool seen = false;
      for (const auto& [c, v] : row) seen = seen || c == col;
      if (!seen) row.emplace_back(col, rng.uniform(0.2, 1.0));
    }
    rows.push_back(std::move(row));
    utilities.push_back(
        std::make_shared<core::LogUtility>(rng.uniform(0.5, 1.0)));
  }
  return {opt::SeparableConcaveObjective(n, std::move(rows),
                                         std::move(utilities)),
          opt::BoxBudgetConstraints(std::move(u), std::move(alpha), theta)};
}

}  // namespace netmon::test
