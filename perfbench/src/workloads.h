// The three workloads. Each fills `out` with the metrics of its mode
// (end-to-end untraced, per-layer traced) and reports failed output checks
// to `report`.
#pragma once

#include "harness.h"
#include "metrics.h"

namespace perfbench {

void run_stack_churn(const Options& o, Values& out, Report& report);
void run_queue_sharded(const Options& o, Values& out, Report& report);
void run_event_poll(const Options& o, Values& out, Report& report);

}  // namespace perfbench
