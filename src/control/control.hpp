// Umbrella header for the streaming re-optimization control loop:
// per-OD Kalman tracking, re-solve trigger policy, hysteresis actuation,
// and the long-lived ControlLoop (which can run on a TenantService's
// infrastructure through TenantService::control_deps()).
#pragma once

#include "control/actuator.hpp"
#include "control/loop.hpp"
#include "control/policy.hpp"
#include "control/tracker.hpp"
