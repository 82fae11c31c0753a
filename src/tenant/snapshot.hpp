// Immutable per-tenant network models for the multi-tenant serving
// layer.
//
// A TenantSnapshot owns everything a request resolves against — the
// topology, the measurement task, the link loads, the problem-assembly
// defaults, plus the precomputed baseline routing matrix — frozen at
// publish time and never mutated. The registry swaps whole snapshots
// RCU-style (shared_ptr epochs): an in-flight solve pins the snapshot it
// started against via the queue's context pin, so reconfiguration never
// blocks a reader and a retired model is freed exactly when its last
// in-flight request answers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/problem.hpp"
#include "core/task.hpp"
#include "routing/routing_matrix.hpp"
#include "serve/exec.hpp"
#include "topo/graph.hpp"
#include "traffic/link_load.hpp"

namespace netmon::tenant {

/// Everything a tenant's queries resolve against, by value: publishing a
/// model hands ownership to the snapshot, so nothing a tenant serves
/// from can dangle or be mutated behind its back.
struct TenantModel {
  topo::Graph graph;
  core::MeasurementTask task;
  traffic::LinkLoads loads;
  /// Scenario defaults (theta, alpha, restrict_to, baseline failures,
  /// ecmp); a request's theta / default_alpha / failed override them
  /// per query.
  core::ProblemOptions problem;
};

/// One immutable published model version of one tenant. Epochs are
/// per-tenant and strictly increasing from 1; the solve cache keys on
/// (tenant, epoch), so a swap implicitly invalidates every cached answer
/// of the previous model.
class TenantSnapshot {
 public:
  /// Validates the model (loads must cover every link; the task must be
  /// non-empty) and precomputes the baseline routing matrix under the
  /// model's default failure set. Throws netmon::Error on an
  /// inconsistent model — a bad publish never becomes visible.
  TenantSnapshot(std::string name, std::uint64_t epoch, TenantModel model);

  const std::string& name() const noexcept { return name_; }
  std::uint64_t epoch() const noexcept { return epoch_; }
  const TenantModel& model() const noexcept { return model_; }

  /// The baseline routing of the task's OD pairs (model defaults: ecmp
  /// flag and default failure set applied). Requests with extra failures
  /// recompute routing during problem assembly as usual.
  const routing::RoutingMatrix& routing() const noexcept { return routing_; }

  /// The borrowed view request execution runs against (serve/exec.hpp).
  /// Valid while this snapshot lives — pin the owning shared_ptr for the
  /// duration of any use.
  serve::ModelView view() const noexcept {
    return serve::ModelView{&model_.graph, &model_.task, &model_.loads,
                            &model_.problem};
  }

 private:
  std::string name_;
  std::uint64_t epoch_;
  TenantModel model_;
  routing::RoutingMatrix routing_;
};

}  // namespace netmon::tenant
