// The metric catalog: every name the benchmark reports, with its unit, in
// output order. BENCHMARK.json lists the same names; the self-tests check
// that the two agree.
#pragma once

#include <map>
#include <string>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Untraced runs (--trace 0) report exactly these, on every workload.
inline constexpr MetricSpec kEndToEnd[] = {
    {"throughput_mops", "Mops/s"},  // Completed calls / s, all threads.
    {"op_p50_ns", "ns"},            // Sampled per-call latency.
    {"op_p99_ns", "ns"},
    {"ok_share", "fraction"},       // 1 - failed calls / attempted calls.
    {"setup_s", "s"},               // Build + spawn + pin, to the gate.
    {"rss_peak_mib", "MiB"},
};

// Traced runs (--trace 1) report exactly these, on every workload. A layer
// the workload does not use reports 0 and is named in the record's
// "bypassed" list.
inline constexpr MetricSpec kPerLayer[] = {
    {"native.steps_per_op", "steps/op"},  // Counted pass: the algorithm's
    {"native.rmw_per_op", "rmw/op"},      // shared steps under seq_cst and
    {"native.stores_per_op", "stores/op"},  // NullBackoff, not the Fast run.
    {"native.word_cas_ns", "ns"},
    {"structures.push_ns.p50", "ns"},
    {"structures.push_ns.p99", "ns"},
    {"structures.pop_ns.p50", "ns"},
    {"structures.pop_ns.p99", "ns"},
    {"structures.cas_fail_per_op", "fails/op"},
    {"structures.head.swing_ns", "ns"},
    {"structures.head.swing_fail_share", "fraction"},
    {"structures.router.cas_fail_per_op.max", "fails/op"},
    {"structures.empty_pop_share", "fraction"},
    {"structures.refused_push_share", "fraction"},
    {"reclaim.fast_ns", "ns"},
    {"reclaim.retire_ns.p50", "ns"},
    {"reclaim.retire_ns.p99", "ns"},
    {"reclaim.alloc_refused_share", "fraction"},
    {"reclaim.backlog_nodes", "nodes"},
    {"reclaim.epoch_lag", "epochs"},
    {"reclaim.guard_slots", "slots"},
    {"util.fence.heavy_ns", "ns"},
    {"util.fence.heavy_per_op", "fences/op"},
    {"core.dread_ns.p50", "ns"},
    {"core.dread_ns.p99", "ns"},
    {"core.dwrite_ns.p50", "ns"},
    {"core.dread_steps", "steps"},
    {"core.dwrite_steps", "steps"},
    {"core.flag_share", "fraction"},
    {"e2e.op_p999_ns", "ns"},
    {"trace.overhead_share", "fraction"},
    {"trace.sampling_overhead_share", "fraction"},
};

// What a workload measured, by metric name.
using Values = std::map<std::string, double>;

}  // namespace perfbench
