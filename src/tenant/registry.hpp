// The tenant directory: name -> (RCU snapshot slot, admission quota).
//
// Reads never wait on model builds: acquire() takes a shared lock on
// the map *shape* (bounded, never held across a solve) and then copies
// the snapshot shared_ptr under a per-tenant slot mutex whose critical
// section is one refcount bump. publish() builds the replacement
// TenantSnapshot — the expensive part, routing precompute included —
// entirely outside any lock readers touch, then swaps it in with one
// pointer store under that same slot mutex. An
// in-flight request keeps the snapshot it resolved against alive through
// its queue context pin, so a swap retires the old model only when the
// last solve against it answers: classic RCU, with shared_ptr epochs as
// the grace period.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "tenant/quota.hpp"
#include "tenant/snapshot.hpp"

namespace netmon::tenant {

class TenantRegistry {
 public:
  /// `clock` seeds each tenant's quota bucket and stamps swap events;
  /// null = the process steady clock. Borrowed; must outlive the
  /// registry.
  explicit TenantRegistry(const obs::Clock* clock = nullptr);

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Attaches observability: netmon_tenant_* metrics on `metrics` and
  /// kTenantSwap events on `recorder` (either may be null). Borrowed;
  /// call before concurrent use (TenantService binds its own registry
  /// here at construction).
  void bind(obs::MetricsRegistry* metrics, obs::FlightRecorder* recorder);

  /// Publishes `model` as the next epoch of `name`, creating the tenant
  /// on first publish. Returns the new epoch (per-tenant, strictly
  /// increasing from 1). The snapshot is built outside the read path;
  /// concurrent publishes to one tenant serialize per tenant. Throws
  /// netmon::Error (and publishes nothing) on an inconsistent model; a
  /// failed first publish registers neither the name nor the default.
  std::uint64_t publish(const std::string& name, TenantModel model);

  /// The current snapshot of `name`, or null when unknown. Empty name
  /// resolves to the default tenant (set_default / first publish). The
  /// returned shared_ptr is the caller's pin: hold it across any use of
  /// the view.
  std::shared_ptr<const TenantSnapshot> acquire(const std::string& name) const;

  /// The tenant's admission quota (created unlimited at first publish).
  /// Null when unknown; empty name resolves like acquire(). The
  /// shared_ptr keeps release() safe even if the tenant is removed while
  /// requests are in flight.
  std::shared_ptr<TenantQuota> quota(const std::string& name) const;

  /// Replaces the tenant's admission limits. Throws when unknown.
  void set_quota(const std::string& name, QuotaConfig config);

  /// Removes the tenant. In-flight requests pinned to its snapshots are
  /// unaffected. Returns false when unknown.
  bool remove(const std::string& name);

  /// Explicit default tenant for requests with an empty tenant field.
  /// Throws when unknown. (The first published tenant becomes the
  /// default automatically.)
  void set_default(const std::string& name);
  std::string default_tenant() const;

  /// Registered tenant names, unordered.
  std::vector<std::string> tenants() const;
  std::size_t size() const;

 private:
  struct State {
    /// The RCU slot. A plain shared_ptr behind a dedicated slot mutex
    /// held only for the pointer copy/swap — never across a snapshot
    /// build or a solve — so a reader's critical section is one
    /// refcount bump. (std::atomic<shared_ptr> is the obvious
    /// spelling, but libstdc++'s embedded lock-bit implementation is
    /// opaque to TSan and trips the CI race gate; an uncontended
    /// std::mutex costs the same one CAS and stays visible to the
    /// tool.)
    mutable std::mutex slot_mutex;
    std::shared_ptr<const TenantSnapshot> snapshot;
    std::shared_ptr<TenantQuota> quota;
    /// Serializes publishes to this tenant (snapshot builds happen under
    /// it, epoch assignment included) without touching the read path.
    std::mutex publish_mutex;
    std::uint64_t epoch = 0;  // guarded by publish_mutex
  };

  /// Looks the state up under the shared lock, resolving an empty name
  /// to the default tenant. Null when unknown. Shared ownership so a
  /// concurrent remove() can never free state a caller still touches.
  std::shared_ptr<State> find(const std::string& name) const;

  /// Builds and swaps in the next epoch of `state`. Throws (and changes
  /// nothing) on an inconsistent model.
  std::uint64_t publish_to(State& state, const std::string& name,
                           TenantModel model);

  const obs::Clock* clock_;  // never null

  /// Serializes first publishes, so a tenant becomes visible only with a
  /// built snapshot and concurrent first publishes of one name still get
  /// consecutive epochs.
  std::mutex first_publish_mutex_;

  /// Guards the map shape and the default name only — never held while
  /// building a snapshot or running a solve.
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<State>> tenants_;
  std::string default_;

  obs::FlightRecorder* recorder_ = nullptr;
  obs::Counter swaps_;
  obs::Gauge tenant_gauge_;
};

}  // namespace netmon::tenant
