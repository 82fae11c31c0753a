#include "serve/stats.hpp"

#include <vector>

namespace netmon::serve {

namespace {

/// Power-of-two bucket bounds, the historical serve histogram shape:
/// bucket 0 counts values <= 1, bucket b counts (2^(b-1), 2^b].
std::vector<double> pow2_bounds(int max_exp) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(max_exp) + 1);
  double bound = 1.0;
  for (int e = 0; e <= max_exp; ++e, bound *= 2.0) bounds.push_back(bound);
  return bounds;
}

}  // namespace

ServeStats::ServeStats(obs::MetricsRegistry& r) {
  submitted_ = r.counter("netmon_serve_submitted_total",
                         "Requests submitted (accepted or not)");
  enqueued_ = r.counter("netmon_serve_enqueued_total", "Requests admitted");
  rejected_full_ = r.counter("netmon_serve_rejected_queue_full_total",
                             "Requests rejected: queue full");
  rejected_shutdown_ = r.counter("netmon_serve_rejected_shutdown_total",
                                 "Requests rejected: server stopping");
  bad_requests_ =
      r.counter("netmon_serve_bad_requests_total", "Requests failing validation");
  expired_in_queue_ = r.counter("netmon_serve_expired_in_queue_total",
                                "Deadlines missed while queued");
  expired_mid_solve_ = r.counter("netmon_serve_expired_mid_solve_total",
                                 "Deadlines missed during the solve");
  served_ok_ = r.counter("netmon_serve_served_total", "Requests served");
  batches_ = r.counter("netmon_serve_batches_total", "Batches dispatched");
  problems_solved_ = r.counter("netmon_serve_problems_solved_total",
                               "Placement problems solved");
  // Depth/size: pow2 buckets to 2^16; latencies: pow2 milliseconds to
  // ~134 s. Per-shard exact max keeps the histograms' max fields exact.
  queue_depth_ = r.histogram("netmon_serve_queue_depth", pow2_bounds(16),
                             "Queue depth after each admit");
  batch_size_ = r.histogram("netmon_serve_batch_size", pow2_bounds(16),
                            "Requests per dispatched batch");
  queue_ms_ = r.histogram("netmon_serve_queue_ms", pow2_bounds(27),
                          "Admit-to-dispatch latency, ms");
  solve_ms_ = r.histogram("netmon_serve_solve_ms", pow2_bounds(27),
                          "Batch solve latency share, ms");
}

}  // namespace netmon::serve
