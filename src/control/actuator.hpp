// Hysteresis actuator: should the fresh optimum actually be pushed?
//
// Re-solving and reconfiguring are different decisions. A re-solve is a
// computation; a reconfiguration touches every router whose sampling rate
// changes, and a fleet that flaps monitors on/off for 0.1% utility is
// operationally worse than one running 0.1% below optimal (the paper's
// "low resource consumption" goal, §I). The actuator pushes a fresh
// placement only when its predicted utility gain over the running
// configuration clears a threshold, with an optional cooldown that bounds
// the push rate even when oscillating traffic keeps clearing the
// threshold. Contract repairs (topology change, budget violation, first
// configuration) are forced: correctness beats damping.
#pragma once

namespace netmon::control {

/// Damping knobs.
struct ActuatorConfig {
  /// Push only when fresh utility - incumbent utility >= this (a gain
  /// exactly at the threshold pushes).
  double min_utility_gain = 1e-3;
  /// Minimum bins between non-forced pushes (0 = no cooldown). Bounds
  /// the reconfiguration rate under oscillating traffic whose per-bin
  /// gain keeps clearing the threshold.
  int cooldown_bins = 0;
};

/// What the actuator sees after a re-solve.
struct ActuationInput {
  /// Utility of the running rates evaluated on the current bin's problem.
  double incumbent_utility = 0.0;
  /// Utility of the fresh optimum on the same problem.
  double fresh_utility = 0.0;
  /// Contract repair (first config, topology change, budget violation):
  /// push regardless of gain or cooldown.
  bool forced = false;
  /// Bins since the last push (large when never pushed).
  int bins_since_push = 0;
};

/// The decision.
struct Actuation {
  bool push = false;
  bool forced = false;
  /// fresh - incumbent utility (negative gains never push unforced).
  double utility_gain = 0.0;
};

class Actuator {
 public:
  explicit Actuator(ActuatorConfig config = {});

  Actuation decide(const ActuationInput& input) const noexcept;

  const ActuatorConfig& config() const noexcept { return config_; }

 private:
  ActuatorConfig config_;
};

}  // namespace netmon::control
