#include "obs/trace.hpp"

#include <bit>
#include <sstream>

#include "util/json.hpp"

namespace netmon::obs {

namespace {

// Word layout of one ring record.
//   0 solve_id
//   1 iteration
//   2 flags: bit 0 final, bit 1 fused, bits 8..15 status, bits 16..23
//     step kind
//   3 value            (double bits)
//   4 grad_inf         (double bits)
//   5 proj_grad_norm   (double bits)
//   6 step             (double bits)
//   7 active_set
//   8 restriction_terms
//   9 kkt_lambda       (double bits)
//  10 kkt_residual     (double bits)
constexpr std::uint64_t kFlagFinal = 1u << 0;
constexpr std::uint64_t kFlagFused = 1u << 1;

std::uint64_t enc(double v) noexcept { return std::bit_cast<std::uint64_t>(v); }
double dec(std::uint64_t bits) noexcept { return std::bit_cast<double>(bits); }

}  // namespace

const char* step_kind_name(StepKind kind) noexcept {
  switch (kind) {
    case StepKind::kFace: return "face";
    case StepKind::kArc: return "arc";
    case StepKind::kRelease: return "release";
    case StepKind::kOptimal: return "optimal";
    case StepKind::kCertified: return "certified";
    case StepKind::kSummary: return "summary";
  }
  return "unknown";
}

SolverTrace::SolverTrace(std::size_t capacity) : ring_(capacity) {}

void SolverTrace::record(const TraceRecord& r) noexcept {
  AtomicRing<kWords>::Record words;
  words[0] = r.solve_id;
  words[1] = r.iteration;
  words[2] = (r.final_record ? kFlagFinal : 0) | (r.fused ? kFlagFused : 0) |
             (static_cast<std::uint64_t>(r.status) << 8) |
             (static_cast<std::uint64_t>(r.kind) << 16);
  words[3] = enc(r.value);
  words[4] = enc(r.grad_inf);
  words[5] = enc(r.proj_grad_norm);
  words[6] = enc(r.step);
  words[7] = r.active_set;
  words[8] = r.restriction_terms;
  words[9] = enc(r.kkt_lambda);
  words[10] = enc(r.kkt_residual);
  ring_.append(words);
}

std::vector<TraceRecord> SolverTrace::snapshot() const {
  std::vector<TraceRecord> out;
  for (const auto& words : ring_.snapshot()) {
    TraceRecord r;
    r.solve_id = words[0];
    r.iteration = static_cast<std::uint32_t>(words[1]);
    r.final_record = (words[2] & kFlagFinal) != 0;
    r.fused = (words[2] & kFlagFused) != 0;
    r.status = static_cast<std::uint8_t>(words[2] >> 8);
    r.kind = static_cast<StepKind>(static_cast<std::uint8_t>(words[2] >> 16));
    r.value = dec(words[3]);
    r.grad_inf = dec(words[4]);
    r.proj_grad_norm = dec(words[5]);
    r.step = dec(words[6]);
    r.active_set = static_cast<std::uint32_t>(words[7]);
    r.restriction_terms = static_cast<std::uint32_t>(words[8]);
    r.kkt_lambda = dec(words[9]);
    r.kkt_residual = dec(words[10]);
    out.push_back(r);
  }
  return out;
}

void SolverTrace::write_jsonl(std::ostream& out) const {
  for (const TraceRecord& r : snapshot()) {
    JsonWriter json(out);
    json.begin_object()
        .key("solve").value(static_cast<std::uint64_t>(r.solve_id))
        .key("iter").value(static_cast<std::uint64_t>(r.iteration))
        .key("final").value(r.final_record)
        .key("fused").value(r.fused)
        .key("status").value(static_cast<std::uint64_t>(r.status))
        .key("kind").value(step_kind_name(r.kind))
        .key("value").value(r.value)
        .key("grad_inf").value(r.grad_inf)
        .key("proj_grad_norm").value(r.proj_grad_norm)
        .key("step").value(r.step)
        .key("active_set").value(static_cast<std::uint64_t>(r.active_set))
        .key("restriction_terms")
        .value(static_cast<std::uint64_t>(r.restriction_terms))
        .key("kkt_lambda").value(r.kkt_lambda)
        .key("kkt_residual").value(r.kkt_residual)
        .end_object();
    out << '\n';
  }
}

std::string SolverTrace::jsonl() const {
  std::ostringstream out;
  write_jsonl(out);
  return out.str();
}

SolverCounters register_solver_counters(MetricsRegistry& registry) {
  SolverCounters counters;
  counters.iterations = registry.counter(
      "netmon_solver_iterations_total",
      "Gradient-projection iterations executed");
  counters.release_events = registry.counter(
      "netmon_solver_release_events_total",
      "Active constraints released on negative KKT multipliers");
  counters.solves = registry.counter("netmon_solver_solves_total",
                                     "Completed maximize() calls");
  counters.cancelled = registry.counter(
      "netmon_solver_cancelled_total",
      "Solves stopped early by the should_stop hook");
  return counters;
}

}  // namespace netmon::obs
