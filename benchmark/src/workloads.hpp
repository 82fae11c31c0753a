// The benchmark's workloads. Each builds its inputs from the seed, times
// its own set-up, measures for about config.seconds, checks its outputs,
// and fills every metric of the catalogue.
#pragma once

#include "bench.hpp"

namespace bench {

Outcome run_serve_miss(const RunConfig& config, Tracer& tracer);
Outcome run_serve_fleet(const RunConfig& config, Tracer& tracer);
Outcome run_measure_loop(const RunConfig& config, Tracer& tracer);
Outcome run_scale_exact(const RunConfig& config, Tracer& tracer);
Outcome run_scale_approx(const RunConfig& config, Tracer& tracer);

}  // namespace bench
