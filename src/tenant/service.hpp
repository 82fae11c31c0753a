// The placement query service: registry -> quota -> cache -> queue ->
// batcher -> BatchSolver.
//
//   transports (any thread)                dispatcher (one thread)
//   ----------------------                 -----------------------
//   submit(Request)                        Batcher::collect()
//     resolve tenant (RCU acquire) ─ pin      |  max_batch / linger
//     validate -> typed kBadRequest           v
//     quota try_admit -> kRejectedQuota    deadline check at dequeue
//     cache lookup -> exact hit answers       |  expired -> typed response
//       bit-identically, no solve            v
//     miss -> nearest donor warm start     per-slot ModelView from the
//     stamp deadline                       request's *pinned* snapshot
//     RequestQueue::try_push ---------->      |
//       full -> typed kRejectedQueueFull      v
//       (context pins the snapshot)     BatchSolver::solve_items(pool)
//                                         per-request SolverOptions carry
//                                         the deadline / iteration-budget
//                                         hook
//                                           |
//                                           v
//                                    responses: stamp tenant + cache
//                                    outcome, insert kOk into cache,
//                                    release quota, invoke callback
//
// A single-model deployment is a registry with one published model: the
// first publish becomes the default tenant, so requests with an empty
// tenant field resolve to it. Requests from different tenants coalesce
// into one dispatch batch — each slot expands against its own pinned
// snapshot, so a registry swap mid-batch never changes what an admitted
// request resolves against.
//
// The service owns one long-lived runtime::ThreadPool; batches are fanned
// across it with the same deterministic chunking as every other netmon
// fan-out, and each solve is a pure function of (model, request), so a
// solved response is bit-identical to a direct core::BatchSolver /
// solve_placement call regardless of thread count or batch/linger
// policy. Backpressure contract: a full queue rejects at submit time
// (typed), an expired deadline is answered (typed), shutdown answers
// everything still parked (typed) — an admitted request always gets
// exactly one Response. This class is a plain serve::Service, so
// LoopbackTransport and TcpServer front it unchanged.
#pragma once

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "control/loop.hpp"
#include "core/batch_solver.hpp"
#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/batcher.hpp"
#include "serve/exec.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"
#include "serve/transport.hpp"
#include "tenant/registry.hpp"
#include "tenant/solve_cache.hpp"

namespace netmon::tenant {

struct TenantServiceOptions {
  /// Bound on parked requests (all tenants share one queue; per-tenant
  /// fairness comes from the quotas).
  std::size_t queue_capacity = 64;
  serve::BatchPolicy batch;
  /// Worker threads for the solve fan-out; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Base solver configuration; per-request hooks layer on a copy.
  opt::SolverOptions solver;
  /// Optional solver iteration trace shared by every tenant's solves
  /// (obs/trace.hpp; lock-free ring, safe across worker threads).
  /// Borrowed; must outlive the service.
  obs::SolverTrace* solver_trace = nullptr;
  /// Solve cache configuration; max_entries = 0 disables caching.
  CacheConfig cache;
  /// Start with the dispatcher parked; resume() starts serving.
  bool start_paused = false;
  /// Injected clock (deadlines, quota refill, flight recorder); null =
  /// the process steady clock. Borrowed; must outlive the service.
  const obs::Clock* clock = nullptr;
  /// Flight-recorder capacity in events; 0 disables.
  std::size_t flight_recorder = 1024;
};

/// serve::Service over a TenantRegistry. Construction binds the
/// registry's observability (netmon_tenant_* metrics, kTenantSwap
/// events) to this service's registry/recorder.
class TenantService final : public serve::Service {
 public:
  /// The registry is borrowed and must outlive the service.
  TenantService(TenantRegistry& registry, TenantServiceOptions options = {});

  /// Stops and drains (typed kShutdown responses for parked requests).
  ~TenantService() override;

  TenantService(const TenantService&) = delete;
  TenantService& operator=(const TenantService&) = delete;

  /// Submits a query. `done` runs exactly once: synchronously for typed
  /// rejections (unknown tenant kBadRequest, kRejectedQuota,
  /// kRejectedQueueFull, kShutdown) and cache hits, or from the
  /// dispatcher for solved responses. Responses carry the resolved
  /// tenant name and the cache outcome.
  void submit(serve::Request request, serve::ResponseCallback done) override;

  /// Future-style submit; same contract.
  std::future<serve::Response> submit(serve::Request request) {
    return serve::submit_future(*this, std::move(request));
  }

  /// Parks the dispatcher and returns once it is actually parked (after
  /// the in-flight batch, at most one poll interval later). Requests keep
  /// queueing while paused (and the queue keeps rejecting when full), so
  /// a paused service stages deterministic queue states.
  void pause();
  /// Resumes dispatching.
  void resume();

  /// Stops the dispatcher and answers everything still queued with
  /// kShutdown. Idempotent.
  void stop();

  std::size_t queue_depth() const { return queue_.size(); }
  unsigned threads() const noexcept { return pool_.size(); }
  const TenantServiceOptions& options() const noexcept { return options_; }

  SolveCache& cache() noexcept { return cache_; }
  const SolveCache& cache() const noexcept { return cache_; }
  TenantRegistry& registry() noexcept { return registry_; }

  /// Lifetime solver invocations (core::BatchSolver::solves) — the
  /// cache acceptance probe: exact hits must not move this.
  std::uint64_t solver_invocations() const noexcept {
    return solver_.solves();
  }

  /// Serve + solver + cache + tenant metrics, one registry.
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  /// Prometheus text exposition of metrics().
  std::string prometheus() const;
  const obs::FlightRecorder& flight_recorder() const noexcept {
    return recorder_;
  }
  const obs::Clock& clock() const noexcept { return *clock_; }

  /// This service's clock, metrics registry, flight recorder and pool,
  /// for a control::ControlLoop the caller constructs and steps: the
  /// loop then solves on the shared pool and reports next to the query
  /// traffic. Borrowed; the loop must not outlive the service.
  control::ControlDeps control_deps() noexcept {
    return control::ControlDeps{clock_, &metrics_, &recorder_, &pool_};
  }

 private:
  void dispatch_loop();
  void process_batch(std::vector<serve::QueuedRequest> batch);

  TenantRegistry& registry_;
  TenantServiceOptions options_;

  /// Declared before solver_, stats_, cache_: all register here.
  obs::MetricsRegistry metrics_;
  const obs::Clock* clock_;  // never null
  obs::FlightRecorder recorder_;

  runtime::ThreadPool pool_;
  core::BatchSolver solver_;
  serve::RequestQueue queue_;
  serve::Batcher batcher_;
  serve::ServeStats stats_;
  SolveCache cache_;

  obs::Counter quota_rejects_;
  obs::Counter unknown_tenants_;

  std::mutex state_mutex_;
  std::condition_variable state_cv_;
  bool paused_ = false;
  bool parked_ = false;
  bool stopping_ = false;
  std::once_flag stop_once_;
  std::thread dispatcher_;
};

}  // namespace netmon::tenant
