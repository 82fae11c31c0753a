// Shared plumbing of the netmon benchmark: run configuration, the metric
// catalogue (must match BENCHMARK.json; report.py checks it), timing
// helpers, the in-memory span buffer, and the machine/build fingerprint
// stamped on every result. Percentiles and means are netmon's own
// (util/stats.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/stats.hpp"

namespace bench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured seconds per run; each workload sizes its phases from it.
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for a fast end-to-end self-check of the harness.
  bool smoke = false;
  std::string out_dir = "benchmark/out";
  /// Commit id (plus "-dirty") of the checkout, or "none".
  std::string git = "none";
};

/// What a workload hands back: every metric of the catalogue (end-to-end
/// and per-layer) plus the operation tally behind fail_ratio.
struct Outcome {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Load-generating threads and client connections the workload used
  /// (the smoke check holds both to at most nproc).
  unsigned load_threads = 1;
  unsigned connections = 0;

  /// Counts one operation; a false `ok` counts it failed and logs `what`.
  void check(bool ok, const std::string& what);
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: reported by every workload with --trace 0.
extern const std::vector<MetricDef> kEndToEnd;
/// Per-layer metrics: reported by every workload with --trace 1. A layer
/// a workload never calls reads 0.
extern const std::vector<MetricDef> kPerLayer;

// ---- time ------------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Builds the workload's state `reps` times with `make` (returning a
/// std::unique_ptr) and stores the median build time in `*setup_s`. Set-up
/// is repeated so setup_s is a median, not one noisy sample; each previous
/// state is torn down outside the timing, and the last one built is what
/// the workload then measures. Each set-up starts after a pause, from a
/// quiet process as a service start does: back to back, a set-up rides on
/// the caches and threads the previous one just warmed, and a
/// sub-millisecond set-up then varied twice as much between runs.
template <typename Make>
auto timed_setup(int reps, double* setup_s, Make&& make) {
  decltype(make()) state;
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    state.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::int64_t start = now_ns();
    state = make();
    seconds.push_back(ns_to_s(now_ns() - start));
  }
  *setup_s = netmon::quantile(seconds, 0.5);
  return state;
}

// ---- spans -----------------------------------------------------------------

/// One timed call into a layer, as seen from the benchmark.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Pre-sized span buffer. record() claims a slot with one atomic add and
/// never allocates, so tracing stays cheap on the measured path; spans
/// beyond the capacity are counted, not stored. Disabled tracers record
/// nothing.
class Tracer {
 public:
  Tracer(bool enabled, std::size_t capacity);

  bool enabled() const noexcept { return enabled_; }
  /// A fresh span id (also usable as a trace id).
  std::uint64_t next_id() noexcept {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void record(const Span& span) noexcept;
  /// Records [start, end) and returns its span id (0 when disabled).
  std::uint64_t span(std::uint64_t trace_id, std::uint64_t parent,
                     const char* name, std::int64_t start_ns,
                     std::int64_t end_ns) noexcept;

  std::size_t recorded() const noexcept;
  std::uint64_t dropped() const noexcept { return dropped_.load(); }
  /// Writes the spans as JSONL; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> ids_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

// ---- fingerprint -----------------------------------------------------------

/// Machine and build identity; results are comparable only when these
/// match (report.py warns otherwise).
std::map<std::string, std::string> fingerprint(const RunConfig& config);

/// JSON string literal of `text`.
std::string json_quote(const std::string& text);

}  // namespace bench
