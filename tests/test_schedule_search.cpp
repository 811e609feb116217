// Tests for the schedule-search engine (src/sim/schedule_search.h):
//
//   * script serialization round-trips and rejects malformed input;
//   * the searched adversary matches-or-beats the scripted park-and-storm
//     seed schedules (the GuardCacheSchedule / EpochSchedule pattern,
//     rebuilt here grant-by-grant through the same ScheduleRunner) for the
//     cached-guard hazard mode and for epochs — the ISSUE's acceptance
//     bar: search must rediscover at least what the hand-written worst
//     cases achieve;
//   * every serialized worst case replays deterministically: two replays
//     of the same script produce bit-identical step traces and the same
//     peak at the same grant;
//   * the top-K schedules the explorer finds are re-checked against the
//     structure invariants (multiset conservation + linearizability —
//     per-shard for the sharded fixture), not just random schedules:
//     a worst-case reclamation schedule must still be a correct execution;
//   * the committed corpus under tests/schedules/ (ABA_SCHEDULE_DIR)
//     replays with its golden bounds — every future reclaimer change is
//     checked against the worst schedules ever found.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "reclaim/reclaimer.h"
#include "sim/schedule_search.h"
#include "sim/types.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "util/assert.h"

namespace aba::search {
namespace {

using harness::WorkloadOp;
using spec::Method;

constexpr int kProcs = 2;
constexpr int kCycles = 12;

std::string trace_signature(const std::vector<sim::StepRecord>& trace) {
  std::ostringstream out;
  for (const auto& step : trace) out << sim::to_string(step) << "\n";
  return out.str();
}

// Multiset conservation: every taken value was put successfully at least as
// many times as it was taken.
void expect_conserved(const std::vector<spec::Op>& ops, Method take) {
  std::map<std::uint64_t, long> balance;
  for (const auto& op : ops) {
    if (op.method != take && op.ret == 1) ++balance[op.arg];
  }
  for (const auto& op : ops) {
    if (op.method == take && op.ret != 0) {
      const std::uint64_t value = op.ret - 1;  // pack_opt inverse
      auto it = balance.find(value);
      ASSERT_TRUE(it != balance.end() && it->second > 0)
          << "taken value " << value << " never put (or taken twice)";
      --it->second;
    }
  }
}

template <class Spec>
void expect_linearizable(const std::vector<spec::Op>& ops) {
  const auto result = spec::check_linearizable<Spec>(ops, Spec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

// The full invariant battery on one replayed schedule: conservation plus
// linearizability — whole-history for flat fixtures, per-shard when the
// fixture recorded landing shards. Crash schedules skip linearizability:
// the victim's pending op may have taken effect without completing (e.g. a
// crash mid-retire removed a value no recorded take accounts for), so only
// conservation — no value taken that was never put — still holds on the
// completed history.
void expect_schedule_invariants(const ReplayResult& replay, bool is_queue,
                                bool has_crash = false) {
  const Method take = is_queue ? Method::kDeq : Method::kPop;
  expect_conserved(replay.history, take);
  if (has_crash) return;
  if (replay.shard_tags.empty()) {
    if (is_queue) {
      expect_linearizable<spec::QueueSpec>(replay.history);
    } else {
      expect_linearizable<spec::StackSpec>(replay.history);
    }
    return;
  }
  ASSERT_EQ(replay.history.size(), replay.shard_tags.size());
  std::vector<std::vector<spec::Op>> by_shard(
      static_cast<std::size_t>(replay.num_shards));
  for (std::size_t i = 0; i < replay.history.size(); ++i) {
    ASSERT_GE(replay.shard_tags[i], 0) << "op " << i << " missing shard tag";
    ASSERT_LT(replay.shard_tags[i], replay.num_shards);
    by_shard[static_cast<std::size_t>(replay.shard_tags[i])].push_back(
        replay.history[i]);
  }
  for (const auto& sub : by_shard) expect_linearizable<spec::StackSpec>(sub);
}

// The scripted seed, rebuilt grant-by-grant: complete the storm driver's
// priming put solo, drive the reader until its reclaimer reports a
// vulnerable phase (guard just published / epoch just announced), PARK it
// there, run the storm to exhaustion, then let the reader resume. Returns
// the script and its peak — the bound the searcher must meet or beat.
std::pair<ScheduleScript, double> scripted_park_and_storm(
    const std::string& fixture_name, const std::vector<WorkloadOp>& workload) {
  ScheduleRunner runner(reclaim_fixture(fixture_name)(kProcs), workload,
                       retired_unreclaimed_cost);
  runner.grant(0);  // Invoke the priming put...
  while (!runner.fixture().world->is_idle(0)) runner.grant(0);  // ...solo.
  while (runner.runnable(1) &&
         !reclaim::is_vulnerable(runner.invoker().reclaim_phase(1))) {
    runner.grant(1);
  }
  runner.grant_while_runnable(0, 1u << 20);  // The retire storm.
  while (!runner.all_done()) {
    bool moved = false;
    for (int pid = 0; pid < runner.num_processes(); ++pid) {
      if (runner.runnable(pid)) {
        runner.grant(pid);
        moved = true;
        break;
      }
    }
    ABA_CHECK_MSG(moved, "scripted seed: no runnable process but work remains");
  }
  return {runner.script(), runner.peak()};
}

// Search, then check the acceptance bar against the scripted seed: the
// best found schedule must reach at least the scripted peak, and its
// serialized script must replay deterministically (bit-identical traces,
// same peak at the same grant, twice).
void expect_search_beats_scripted(const std::string& fixture_name,
                                  double min_scripted_peak) {
  const auto factory = reclaim_fixture(fixture_name);
  const auto workload = storm_workload(fixture_name, kProcs, kCycles);

  const auto [seed_script, scripted_peak] =
      scripted_park_and_storm(fixture_name, workload);
  EXPECT_GE(scripted_peak, min_scripted_peak)
      << fixture_name << ": the scripted seed must itself do damage";

  SearchOptions options;
  options.top_k = 3;
  options.context_bound = 3;
  options.max_executions = 128;
  ScheduleExplorer explorer(factory, kProcs, workload,
                            retired_unreclaimed_cost, options);
  const SearchResult result = explorer.run();
  ASSERT_NE(result.top(), nullptr) << fixture_name;
  EXPECT_GE(result.top()->peak_cost, scripted_peak)
      << fixture_name << ": search must rediscover the scripted worst case"
      << " (explored " << result.executions << " schedules)";

  // Serialize → parse → replay twice: deterministic to the bit.
  const std::string text = result.top()->script.serialize();
  const auto parsed = ScheduleScript::parse(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  const ReplayResult first =
      ScheduleExplorer::replay(factory, *parsed, retired_unreclaimed_cost);
  const ReplayResult second =
      ScheduleExplorer::replay(factory, *parsed, retired_unreclaimed_cost);
  EXPECT_EQ(first.peak_cost, result.top()->peak_cost);
  EXPECT_EQ(first.peak_cost, second.peak_cost);
  EXPECT_EQ(first.peak_grant, second.peak_grant);
  EXPECT_EQ(trace_signature(first.trace), trace_signature(second.trace))
      << fixture_name << ": replays must be bit-identical";
}

// ------------------------------------------------------------- script

TEST(ScheduleScript, SerializeParseRoundTrip) {
  ScheduleScript script;
  script.num_processes = 2;
  script.workload = {{0, Method::kPush, 7}, {1, Method::kPop, 0},
                     {0, Method::kEnq, 9},  {1, Method::kDeq, 0}};
  script.grants = {0, 0, 1, 1, 0, 1};
  script.meta["fixture"] = "stack_epoch";
  script.meta["expect_peak"] = "13";

  const auto parsed = ScheduleScript::parse(script.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_processes, script.num_processes);
  EXPECT_EQ(parsed->grants, script.grants);
  EXPECT_EQ(parsed->meta, script.meta);
  ASSERT_EQ(parsed->workload.size(), script.workload.size());
  for (std::size_t i = 0; i < script.workload.size(); ++i) {
    EXPECT_EQ(parsed->workload[i].pid, script.workload[i].pid);
    EXPECT_EQ(parsed->workload[i].method, script.workload[i].method);
    EXPECT_EQ(parsed->workload[i].arg, script.workload[i].arg);
  }
}

TEST(ScheduleScript, CrashGrantsRoundTrip) {
  // Crash grants serialize as "!<pid>" tokens in the grants lines and
  // survive a serialize → parse round trip as the negative encoding.
  ScheduleScript script;
  script.num_processes = 2;
  script.workload = {{0, Method::kPush, 7}, {1, Method::kPop, 0}};
  script.grants = {0, 1, crash_grant(1), 0, 0};
  script.meta["crashes"] = "1";

  const std::string text = script.serialize();
  EXPECT_NE(text.find("!1"), std::string::npos) << text;
  const auto parsed = ScheduleScript::parse(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(parsed->grants, script.grants);
  EXPECT_EQ(parsed->meta, script.meta);
}

TEST(ScheduleScript, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ScheduleScript::parse("").has_value());
  EXPECT_FALSE(ScheduleScript::parse("not-a-script v1\nend\n").has_value());
  EXPECT_FALSE(  // Missing end marker (truncated file).
      ScheduleScript::parse("schedule-script v1\nprocesses 2\n").has_value());
  EXPECT_FALSE(  // Grant to a pid outside [0, n).
      ScheduleScript::parse(
          "schedule-script v1\nprocesses 2\ngrants 0 2\nend\n")
          .has_value());
  EXPECT_FALSE(  // Unknown method.
      ScheduleScript::parse(
          "schedule-script v1\nprocesses 1\nop 0 swap 3\nend\n")
          .has_value());
  EXPECT_FALSE(  // Crash grant naming a pid outside [0, n).
      ScheduleScript::parse(
          "schedule-script v1\nprocesses 2\ngrants 0 !2\nend\n")
          .has_value());
  EXPECT_FALSE(  // Crash token with no pid.
      ScheduleScript::parse(
          "schedule-script v1\nprocesses 2\ngrants 0 !\nend\n")
          .has_value());
  EXPECT_FALSE(  // Non-numeric grant token.
      ScheduleScript::parse(
          "schedule-script v1\nprocesses 2\ngrants 0 !x\nend\n")
          .has_value());
}

TEST(ScheduleScript, AllStandardFixturesConstruct) {
  for (const std::string& name : reclaim_fixture_names()) {
    const SearchFixture fixture = reclaim_fixture(name)(kProcs);
    EXPECT_NE(fixture.world, nullptr) << name;
    EXPECT_NE(fixture.invoker, nullptr) << name;
  }
}

// tools/schedule_dump.py warns on fixture names it does not know; its
// KNOWN_FIXTURES set must name exactly the registered fixtures.
TEST(ScheduleScript, DumpToolKnowsExactlyTheRegisteredFixtures) {
  const std::filesystem::path tool =
      std::filesystem::path(ABA_SCHEDULE_DIR) / ".." / ".." / "tools" /
      "schedule_dump.py";
  std::ifstream in(tool);
  ASSERT_TRUE(in.good()) << "cannot read " << tool;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::size_t open = text.find("KNOWN_FIXTURES = frozenset([");
  ASSERT_NE(open, std::string::npos) << "no KNOWN_FIXTURES set in " << tool;
  const std::size_t close = text.find("])", open);
  ASSERT_NE(close, std::string::npos);
  std::set<std::string> known;
  for (std::size_t q = text.find('"', open); q < close;
       q = text.find('"', q + 1)) {
    const std::size_t end = text.find('"', q + 1);
    ASSERT_LT(end, close);
    known.insert(text.substr(q + 1, end - q - 1));
    q = end;
  }
  const auto names = reclaim_fixture_names();
  EXPECT_EQ(known, std::set<std::string>(names.begin(), names.end()));
}

// ----------------------------------------------- search vs scripted seed

TEST(ScheduleSearch, BeatsScriptedSeedStackHazardCached) {
  // The scripted bound is the hazard scan threshold (2·H = 8 for n=2): a
  // storm's retired list peaks exactly there before the scan fires.
  expect_search_beats_scripted("stack_hazard_cached", 8.0);
}

TEST(ScheduleSearch, BeatsScriptedSeedStackEpoch) {
  // A parked announcement freezes the epoch, so every storm retire stays
  // in limbo: the scripted peak is the full storm (cycles + prime).
  expect_search_beats_scripted("stack_epoch", static_cast<double>(kCycles));
}

TEST(ScheduleSearch, BeatsScriptedSeedQueueHazardCached) {
  expect_search_beats_scripted("queue_hazard_cached", 8.0);
}

TEST(ScheduleSearch, BeatsScriptedSeedQueueEpoch) {
  expect_search_beats_scripted("queue_epoch", static_cast<double>(kCycles));
}

// ------------------------------------------------- top-K invariant checks

TEST(ScheduleSearch, TopKSchedulesKeepStructureInvariants) {
  SearchOptions options;
  options.top_k = 3;
  options.max_executions = 32;
  for (const std::string& name :
       {std::string("stack_hazard"), std::string("stack_hazard_cached"),
        std::string("stack_epoch"), std::string("queue_hazard"),
        std::string("queue_hazard_cached"), std::string("queue_epoch")}) {
    const auto factory = reclaim_fixture(name);
    const auto workload = storm_workload(name, kProcs, 6);
    ScheduleExplorer explorer(factory, kProcs, workload,
                              retired_unreclaimed_cost, options);
    const SearchResult result = explorer.run();
    ASSERT_FALSE(result.best.empty()) << name;
    for (const FoundSchedule& found : result.best) {
      SCOPED_TRACE(::testing::Message()
                   << name << " peak=" << found.peak_cost);
      const ReplayResult replay = ScheduleExplorer::replay(
          factory, found.script, retired_unreclaimed_cost);
      EXPECT_EQ(replay.peak_cost, found.peak_cost)
          << "replay must reproduce the search's peak";
      expect_schedule_invariants(replay, name.rfind("queue", 0) == 0);
    }
  }
}

TEST(ScheduleSearch, ShardedTopKKeepsPerShardLinearizability) {
  const std::string name = "sharded_stack_hazard_cached";
  const auto factory = reclaim_fixture(name);
  const auto workload = storm_workload(name, kProcs, 6);
  SearchOptions options;
  options.top_k = 3;
  options.max_executions = 32;
  ScheduleExplorer explorer(factory, kProcs, workload,
                            retired_unreclaimed_cost, options);
  const SearchResult result = explorer.run();
  ASSERT_FALSE(result.best.empty());
  for (const FoundSchedule& found : result.best) {
    const ReplayResult replay = ScheduleExplorer::replay(
        factory, found.script, retired_unreclaimed_cost);
    ASSERT_EQ(replay.num_shards, 2);
    ASSERT_FALSE(replay.shard_tags.empty());
    expect_schedule_invariants(replay, /*is_queue=*/false);
  }
}

// ------------------------------------------------------------- corpus

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  const std::filesystem::path dir(ABA_SCHEDULE_DIR);
  if (std::filesystem::exists(dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".sched") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ScheduleCorpus, ReplaysAreBitIdenticalAndMatchGoldenBounds) {
  const auto files = corpus_files();
  ASSERT_FALSE(files.empty())
      << "no committed corpus under " << ABA_SCHEDULE_DIR;
  std::set<std::string> fixtures_seen;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto script = ScheduleScript::parse(buffer.str());
    ASSERT_TRUE(script.has_value()) << "corpus file failed to parse";

    ASSERT_TRUE(script->meta.count("fixture"));
    ASSERT_TRUE(script->meta.count("cost"));
    const std::string fixture_name = script->meta.at("fixture");
    fixtures_seen.insert(fixture_name);
    const int pool = script->meta.count("pool")
                         ? std::stoi(script->meta.at("pool"))
                         : kDefaultPoolPerProcess;
    const auto factory = reclaim_fixture(fixture_name, pool);
    const CostFn cost = cost_by_name(script->meta.at("cost"));

    // Lease-mutant convictions (PR 10) are committed *because* they violate
    // the spec: replays must re-produce the failing verdict bit-identically
    // instead of matching golden peaks, and the schedule-invariant sweep
    // (which insists on a correct execution) does not apply.
    if (script->meta.count("expect_verdict")) {
      ASSERT_EQ(script->meta.at("expect_verdict"), "violation");
      const ReplayResult first =
          ScheduleExplorer::replay(factory, *script, cost);
      const ReplayResult second =
          ScheduleExplorer::replay(factory, *script, cost);
      EXPECT_TRUE(first.verdict.checked);
      EXPECT_FALSE(first.verdict.ok)
          << "committed conviction no longer replays to a violation";
      EXPECT_EQ(first.verdict.detail, second.verdict.detail);
      EXPECT_EQ(trace_signature(first.trace), trace_signature(second.trace));
      ASSERT_TRUE(script->meta.count("crashes"));
      EXPECT_EQ(std::count_if(script->grants.begin(), script->grants.end(),
                              [](int g) { return is_crash_grant(g); }),
                std::stoll(script->meta.at("crashes")));
      continue;
    }
    ASSERT_TRUE(script->meta.count("expect_peak"));

    const ReplayResult first = ScheduleExplorer::replay(factory, *script, cost);
    const ReplayResult second =
        ScheduleExplorer::replay(factory, *script, cost);

    // Golden bound: the peak this schedule was committed with.
    EXPECT_EQ(first.peak_cost, std::stod(script->meta.at("expect_peak")));
    if (script->meta.count("expect_peak_grant")) {
      EXPECT_EQ(first.peak_grant,
                std::stoull(script->meta.at("expect_peak_grant")));
    }
    if (script->meta.count("expect_grants")) {
      EXPECT_EQ(script->grants.size(),
                std::stoull(script->meta.at("expect_grants")))
          << "committed grant count went stale";
    }
    // Bit-identical determinism across replays.
    EXPECT_EQ(first.peak_cost, second.peak_cost);
    EXPECT_EQ(first.peak_grant, second.peak_grant);
    EXPECT_EQ(trace_signature(first.trace), trace_signature(second.trace));

    // Crash schedules carry golden *recovery* bounds: after the victim is
    // killed mid-protocol, the survivors' final reclaimer stats must land
    // exactly where they did when the schedule was committed.
    const bool has_crash =
        std::any_of(script->grants.begin(), script->grants.end(),
                    [](int g) { return is_crash_grant(g); });
    if (has_crash) {
      ASSERT_TRUE(script->meta.count("crashes"));
      EXPECT_EQ(std::count_if(script->grants.begin(), script->grants.end(),
                              [](int g) { return is_crash_grant(g); }),
                std::stoll(script->meta.at("crashes")));
      ASSERT_TRUE(script->meta.count("expect_expropriations"))
          << "crash schedule missing its recovery bound";
      EXPECT_EQ(first.final_stats.expropriations,
                std::stoull(script->meta.at("expect_expropriations")));
      if (script->meta.count("expect_final_retired")) {
        EXPECT_EQ(first.final_stats.retired_unreclaimed,
                  std::stoull(script->meta.at("expect_final_retired")));
      }
      if (script->meta.count("expect_final_free")) {
        EXPECT_EQ(first.final_stats.free_nodes,
                  std::stoull(script->meta.at("expect_final_free")));
      }
      if (script->meta.count("expect_quarantined")) {
        EXPECT_EQ(first.final_stats.quarantined,
                  std::stoull(script->meta.at("expect_quarantined")));
      }
    }
    // A worst case must still be a correct execution (of the completed ops).
    expect_schedule_invariants(first, fixture_name.rfind("queue", 0) == 0,
                               has_crash);
  }
  // The acceptance pair the ISSUE names must be in the committed corpus,
  // and so must the deferred-announce epoch fixtures (PR 9).
  EXPECT_TRUE(fixtures_seen.count("stack_hazard_cached")) << "corpus gap";
  EXPECT_TRUE(fixtures_seen.count("stack_epoch")) << "corpus gap";
  EXPECT_TRUE(fixtures_seen.count("stack_epoch_deferred")) << "corpus gap";
  EXPECT_TRUE(fixtures_seen.count("queue_epoch_deferred")) << "corpus gap";
}

}  // namespace
}  // namespace aba::search
