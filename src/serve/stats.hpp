// Serving-layer instrumentation on obs::MetricsRegistry.
//
// ServeStats names the serve metrics: every counter and histogram lives
// in the service's MetricsRegistry (per-thread sharded cells, exact max
// per histogram), so serve and solver metrics share one snapshot/export
// path — Prometheus text and the JSONL dump. Read them back through the
// registry's snapshot under the netmon_serve_* names.
#pragma once

#include <cstddef>

#include "obs/metrics.hpp"

namespace netmon::serve {

/// Thread-safe serve metrics, stored in an obs::MetricsRegistry under
/// the netmon_serve_* names. Every on_* hook is a sharded lock-free
/// update.
class ServeStats {
 public:
  /// Registers the serve metrics on `registry`. Borrowed; must outlive
  /// this object.
  explicit ServeStats(obs::MetricsRegistry& registry);

  void on_submitted() noexcept { submitted_.inc(); }
  void on_enqueued(std::size_t queue_depth_after) noexcept {
    enqueued_.inc();
    queue_depth_.observe(static_cast<double>(queue_depth_after));
  }
  void on_rejected_queue_full() noexcept { rejected_full_.inc(); }
  void on_rejected_shutdown() noexcept { rejected_shutdown_.inc(); }
  void on_bad_request() noexcept { bad_requests_.inc(); }
  void on_expired_in_queue() noexcept { expired_in_queue_.inc(); }
  void on_expired_mid_solve() noexcept { expired_mid_solve_.inc(); }
  void on_batch(std::size_t batch_size, std::size_t problem_count) noexcept {
    batches_.inc();
    problems_solved_.inc(problem_count);
    batch_size_.observe(static_cast<double>(batch_size));
  }
  void on_served(double queue_ms, double solve_ms) noexcept {
    served_ok_.inc();
    queue_ms_.observe(queue_ms);
    solve_ms_.observe(solve_ms);
  }

 private:
  obs::Counter submitted_, enqueued_, rejected_full_, rejected_shutdown_,
      bad_requests_, expired_in_queue_, expired_mid_solve_, served_ok_,
      batches_, problems_solved_;
  obs::Histogram queue_depth_, batch_size_, queue_ms_, solve_ms_;
};

}  // namespace netmon::serve
