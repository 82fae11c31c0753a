#include "tenant/snapshot.hpp"

#include <utility>

#include "util/error.hpp"

namespace netmon::tenant {

namespace {

TenantModel validated(TenantModel model) {
  NETMON_REQUIRE(model.loads.size() == model.graph.link_count(),
                 "tenant loads must cover every link");
  NETMON_REQUIRE(!model.task.ods.empty(),
                 "tenant task must have at least one OD pair");
  NETMON_REQUIRE(model.task.expected_packets.size() == model.task.ods.size(),
                 "tenant task expected_packets must match its OD pairs");
  return model;
}

std::shared_ptr<const routing::RoutingMatrix> build_routing(
    const TenantModel& model) {
  return std::make_shared<const routing::RoutingMatrix>(
      model.problem.ecmp
          ? routing::RoutingMatrix::ecmp(model.graph, model.task.ods,
                                         model.problem.failed)
          : routing::RoutingMatrix::single_path(model.graph, model.task.ods,
                                                model.problem.failed));
}

}  // namespace

TenantSnapshot::TenantSnapshot(std::string name, std::uint64_t epoch,
                               TenantModel model)
    : name_(std::move(name)),
      epoch_(epoch),
      model_(validated(std::move(model))),
      routing_(build_routing(model_)) {
  NETMON_REQUIRE(!name_.empty(), "tenant name must be non-empty");
  NETMON_REQUIRE(epoch_ >= 1, "tenant epochs start at 1");
}

}  // namespace netmon::tenant
