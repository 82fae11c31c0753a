#include "opt/certificate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace netmon::opt {

double knapsack_max(std::span<const double> g, std::span<const double> u,
                    std::span<const double> alpha, double theta,
                    std::vector<KnapsackItem>& items) {
  const std::size_t n = g.size();
  items.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    items[j] = {g[j] / u[j], u[j] * alpha[j], g[j] * alpha[j]};
    // A non-finite gradient has no fill; selection needs a total order.
    if (!std::isfinite(items[j].ratio))
      return std::numeric_limits<double>::quiet_NaN();
  }

  // Select the median ratio of the undecided range, then keep the half
  // that holds the threshold: if the items above the median outweigh the
  // budget left, the threshold is among them; otherwise they and the
  // median fill to their bounds. Each pass halves the range, so the
  // selections sum to O(n). The budget is an equality with theta <=
  // sum u_j alpha_j, so the fill lands exactly on theta.
  const auto higher = [](const KnapsackItem& a, const KnapsackItem& b) {
    return a.ratio > b.ratio;
  };
  auto first = items.begin();
  auto last = items.end();
  double remaining = theta;
  double best = 0.0;
  while (first != last && remaining > 0.0) {
    const auto mid = first + (last - first) / 2;
    std::nth_element(first, mid, last, higher);
    double weight = 0.0, gain = 0.0;
    for (auto it = first; it != mid; ++it) {
      weight += it->weight;
      gain += it->gain;
    }
    if (weight >= remaining) {
      last = mid;
      continue;
    }
    best += gain;
    remaining -= weight;
    if (mid->weight >= remaining) {
      best += mid->ratio * remaining;  // the marginal item, split
      break;
    }
    best += mid->gain;
    remaining -= mid->weight;
    first = mid + 1;
  }
  return best;
}

GapCertificate certificate_at(double value, std::span<const double> g,
                              std::span<const double> p,
                              const BoxBudgetConstraints& constraints,
                              std::vector<KnapsackItem>& items) {
  const double best_linear =
      knapsack_max(g, constraints.loads(), constraints.upper(),
                   constraints.theta(), items);
  double g_dot_p = 0.0;
  for (std::size_t j = 0; j < p.size(); ++j) g_dot_p += g[j] * p[j];

  GapCertificate cert;
  cert.value = value;
  const double gap = best_linear - g_dot_p;
  // NaN certifies nothing: an unbounded gap never passes a stop test.
  cert.gap = std::isnan(gap) ? std::numeric_limits<double>::infinity()
                             : std::max(0.0, gap);
  cert.upper_bound = cert.value + cert.gap;
  cert.relative_gap =
      cert.gap / std::max(std::abs(cert.value),
                          std::numeric_limits<double>::min());
  return cert;
}

GapCertificate certified_gap(const Objective& f,
                             const BoxBudgetConstraints& constraints,
                             std::span<const double> p) {
  const std::size_t n = constraints.dimension();
  NETMON_REQUIRE(p.size() == n, "certificate point dimension mismatch");
  NETMON_REQUIRE(constraints.feasible(p, 1e-6),
                 "certificate point must be feasible");
  std::vector<double> g(n);
  f.gradient(p, g);
  std::vector<KnapsackItem> items;
  return certificate_at(f.value(p), g, p, constraints, items);
}

}  // namespace netmon::opt
