#include "tenant/registry.hpp"

#include <utility>

#include "util/error.hpp"

namespace netmon::tenant {

TenantRegistry::TenantRegistry(const obs::Clock* clock)
    : clock_(clock != nullptr ? clock : &obs::Clock::system()) {}

void TenantRegistry::bind(obs::MetricsRegistry* metrics,
                          obs::FlightRecorder* recorder) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  recorder_ = recorder;
  if (metrics != nullptr) {
    swaps_ = metrics->counter("netmon_tenant_swaps_total",
                              "Tenant snapshot publishes (RCU swaps)");
    tenant_gauge_ =
        metrics->gauge("netmon_tenant_count", "Registered tenants");
    tenant_gauge_.set(static_cast<double>(tenants_.size()));
  } else {
    swaps_ = obs::Counter();
    tenant_gauge_ = obs::Gauge();
  }
}

std::shared_ptr<TenantRegistry::State> TenantRegistry::find(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const std::string& resolved = name.empty() ? default_ : name;
  if (resolved.empty()) return nullptr;
  const auto it = tenants_.find(resolved);
  return it == tenants_.end() ? nullptr : it->second;
}

std::uint64_t TenantRegistry::publish(const std::string& name,
                                      TenantModel model) {
  NETMON_REQUIRE(!name.empty(), "tenant name must be non-empty");
  if (const std::shared_ptr<State> state = find(name))
    return publish_to(*state, name, std::move(model));

  // First publish: build the tenant's first snapshot off to the side and
  // register the name (and claim the default) only once that succeeded,
  // so an inconsistent model leaves no trace. Serializing first publishes
  // lets a concurrent first publish of the same name find the registered
  // state on the re-check and become epoch 2.
  std::lock_guard<std::mutex> first_lock(first_publish_mutex_);
  if (const std::shared_ptr<State> state = find(name))
    return publish_to(*state, name, std::move(model));
  auto state = std::make_shared<State>();
  state->quota = std::make_shared<TenantQuota>(QuotaConfig{}, clock_);
  const std::uint64_t epoch = publish_to(*state, name, std::move(model));
  std::unique_lock<std::shared_mutex> lock(mutex_);
  tenants_.emplace(name, std::move(state));
  if (default_.empty()) default_ = name;
  tenant_gauge_.set(static_cast<double>(tenants_.size()));
  return epoch;
}

std::uint64_t TenantRegistry::publish_to(State& state, const std::string& name,
                                         TenantModel model) {
  // The expensive part — copying the model in, validating it, routing
  // precompute — runs outside the map lock; only same-tenant publishes
  // serialize. A throw here (inconsistent model) publishes nothing and
  // leaves the previous epoch serving.
  std::lock_guard<std::mutex> publish_lock(state.publish_mutex);
  const std::uint64_t epoch = state.epoch + 1;
  auto snapshot =
      std::make_shared<const TenantSnapshot>(name, epoch, std::move(model));
  state.epoch = epoch;
  {
    std::lock_guard<std::mutex> slot_lock(state.slot_mutex);
    state.snapshot = std::move(snapshot);
  }
  swaps_.inc();
  if (recorder_ != nullptr)
    recorder_->record(obs::ServeEvent::kTenantSwap, 0, epoch, clock_->now());
  return epoch;
}

std::shared_ptr<const TenantSnapshot> TenantRegistry::acquire(
    const std::string& name) const {
  const std::shared_ptr<State> state = find(name);
  if (state == nullptr) return nullptr;
  // Never null: a tenant is registered only after its first snapshot
  // was stored.
  std::lock_guard<std::mutex> slot_lock(state->slot_mutex);
  return state->snapshot;
}

std::shared_ptr<TenantQuota> TenantRegistry::quota(
    const std::string& name) const {
  const std::shared_ptr<State> state = find(name);
  return state == nullptr ? nullptr : state->quota;
}

void TenantRegistry::set_quota(const std::string& name, QuotaConfig config) {
  const std::shared_ptr<State> state = find(name);
  NETMON_REQUIRE(state != nullptr, "unknown tenant: " + name);
  state->quota->configure(config);
}

bool TenantRegistry::remove(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) return false;
  tenants_.erase(it);
  if (default_ == name) default_.clear();
  tenant_gauge_.set(static_cast<double>(tenants_.size()));
  return true;
}

void TenantRegistry::set_default(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  NETMON_REQUIRE(tenants_.find(name) != tenants_.end(),
                 "unknown tenant: " + name);
  default_ = name;
}

std::string TenantRegistry::default_tenant() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return default_;
}

std::vector<std::string> TenantRegistry::tenants() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) names.push_back(name);
  return names;
}

std::size_t TenantRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return tenants_.size();
}

}  // namespace netmon::tenant
