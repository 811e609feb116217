// perfbench — the repository benchmark.
//
//   perfbench --workload stack_churn|queue_sharded|event_poll --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//             [--source-digest HEX] [--inject drop_value|suppress_flag]
//
// Prints one record line (seed, sampling, host and build provenance, any
// failed checks), then the result line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones (src/metrics.h). Exits 1 when an output check fails and 2
// on a usage error.
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "harness.h"
#include "metrics.h"
#include "util/asymmetric_fence.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "stack_churn|queue_sharded|event_poll --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--source-digest HEX] "
               "[--inject drop_value|suppress_flag]\n",
               why);
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && o.seconds > 0 && o.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--source-digest") {
      o.source_digest = value;
    } else if (flag == "--inject") {
      if (value != "drop_value" && value != "suppress_flag") return std::nullopt;
      o.inject = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return std::nullopt;
  return o;
}

std::string json_int_list(const std::vector<int>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ", ";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

// Host and build provenance, so runs from different hosts or builds are
// never compared silently.
void record_host(const Options& o, Report& report) {
  report.record_str("workload", o.workload);
  report.record_num("seed", static_cast<double>(o.seed));
  report.record_num("seconds", o.seconds);
  report.record_num("trace", o.trace ? 1 : 0);
  report.record_num("threads", kThreads);
  report.record_num("sample_every_k", kSampleEvery);
  report.record_num("rounds", o.trace ? kTracePasses : kRounds);
  report.record_num("nproc", std::thread::hardware_concurrency());
  report.record_num("online_cores", static_cast<double>(online_cpus().size()));
  std::vector<int> pins;
  for (int pid = 0; pid < kThreads; ++pid) pins.push_back(pin_cpu(pid));
  report.record("pin_map", json_int_list(pins));
  report.record_str("fence_scheme", aba::util::AsymmetricFence::scheme_name());
  report.record_str("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  report.record_str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  report.record_str("compiler", std::string("gcc ") + __VERSION__);
#endif
  utsname u{};
  if (uname(&u) == 0) {
    report.record_str("kernel", std::string(u.sysname) + " " + u.release);
  }
  report.record_str("source_digest", o.source_digest);
  if (o.trace) {
    report.record_str("native_counts",
                      "NativePlatform<Counted> pass, seq_cst and NullBackoff: "
                      "the algorithm's shared steps, not the Fast schedule's");
  }
  report.record_num("tick_ns", aba::util::tick_ns());
}

// Reports every catalog metric in order; a layer the workload does not use
// reports 0 and is listed as bypassed.
void emit(const Values& values, bool traced, Report& report) {
  std::string bypassed = "[";
  auto put = [&](const MetricSpec& spec) {
    const auto it = values.find(spec.name);
    if (it == values.end()) {
      if (bypassed.size() > 1) bypassed += ", ";
      bypassed += json_string(spec.name);
    }
    report.metric(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  };
  if (traced) {
    for (const MetricSpec& spec : kPerLayer) put(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) put(spec);
  }
  report.record("bypassed", bypassed + "]");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::optional<Options> parsed = parse(argc, argv);
  if (!parsed) return usage("bad or missing arguments");
  const Options& o = *parsed;
  void (*run)(const Options&, Values&, Report&) = nullptr;
  if (o.workload == "stack_churn") run = run_stack_churn;
  if (o.workload == "queue_sharded") run = run_queue_sharded;
  if (o.workload == "event_poll") run = run_event_poll;
  if (run == nullptr) return usage("unknown workload");

  Report report;
  record_host(o, report);
  Values values;
  try {
    run(o, values, report);
  } catch (const std::exception& e) {
    report.fail(std::string("workload threw: ") + e.what());
  }
  emit(values, o.trace, report);
  report.print(stdout);
  return report.correct() ? 0 : 1;
}
