// Umbrella header for the packet ingest subsystem: sources (pcap trace
// replay, synthetic traffic-model generators) and the pipeline that
// folds sampled packets into per-link flow tables and feeds the
// collector/estimator chain. See DESIGN.md §12.
#pragma once

#include "ingest/packet.hpp"     // IWYU pragma: export
#include "ingest/pipeline.hpp"   // IWYU pragma: export
#include "ingest/source.hpp"     // IWYU pragma: export
#include "ingest/synthetic.hpp"  // IWYU pragma: export
#include "ingest/trace.hpp"      // IWYU pragma: export
