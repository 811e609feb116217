#include "sim/schedule_search.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "harness/adapters.h"
#include "reclaim/epoch.h"
#include "reclaim/hazard_pointer.h"
#include "reclaim/leaky.h"
#include "reclaim/mutant.h"
#include "reclaim/tagged.h"
#include "sim/sim_lease.h"
#include "sim/sim_platform.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "structures/ms_queue.h"
#include "structures/ring_buffer.h"
#include "structures/sharded.h"
#include "structures/treiber_stack.h"
#include "util/assert.h"

namespace aba::search {

namespace {

const char* method_name(spec::Method m) {
  switch (m) {
    case spec::Method::kPush: return "push";
    case spec::Method::kPop: return "pop";
    case spec::Method::kEnq: return "enq";
    case spec::Method::kDeq: return "deq";
    default: break;
  }
  ABA_CHECK_MSG(false, "schedule scripts carry stack/queue methods only");
  return "?";
}

std::optional<spec::Method> method_from(const std::string& name) {
  if (name == "push") return spec::Method::kPush;
  if (name == "pop") return spec::Method::kPop;
  if (name == "enq") return spec::Method::kEnq;
  if (name == "deq") return spec::Method::kDeq;
  return std::nullopt;
}

}  // namespace

// ----------------------------------------------------------------- script

std::string ScheduleScript::serialize() const {
  std::ostringstream out;
  out << "schedule-script v1\n";
  out << "processes " << num_processes << "\n";
  for (const auto& [key, value] : meta) {
    out << "meta " << key << " " << value << "\n";
  }
  for (const auto& op : workload) {
    out << "op " << op.pid << " " << method_name(op.method) << " " << op.arg
        << "\n";
  }
  for (std::size_t i = 0; i < grants.size(); ++i) {
    if (i % 24 == 0) out << (i == 0 ? "grants" : "\ngrants");
    if (is_crash_grant(grants[i])) {
      out << " !" << crash_victim(grants[i]);
    } else {
      out << ' ' << grants[i];
    }
  }
  if (!grants.empty()) out << "\n";
  out << "end\n";
  return out.str();
}

std::optional<ScheduleScript> ScheduleScript::parse(const std::string& text) {
  ScheduleScript script;
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    // Strip comments and blank lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string word;
    if (!(tokens >> word)) continue;

    if (!saw_header) {
      std::string version;
      if (word != "schedule-script" || !(tokens >> version) || version != "v1") {
        return std::nullopt;
      }
      saw_header = true;
      continue;
    }
    if (word == "processes") {
      if (!(tokens >> script.num_processes) || script.num_processes < 1) {
        return std::nullopt;
      }
    } else if (word == "meta") {
      std::string key, value;
      if (!(tokens >> key)) return std::nullopt;
      std::getline(tokens, value);
      const std::size_t start = value.find_first_not_of(" \t");
      script.meta[key] =
          start == std::string::npos ? std::string() : value.substr(start);
    } else if (word == "op") {
      harness::WorkloadOp op;
      std::string method;
      if (!(tokens >> op.pid >> method >> op.arg)) return std::nullopt;
      const auto parsed = method_from(method);
      if (!parsed || op.pid < 0 || op.pid >= script.num_processes) {
        return std::nullopt;
      }
      op.method = *parsed;
      script.workload.push_back(op);
    } else if (word == "grants") {
      std::string token;
      while (tokens >> token) {
        bool crash = false;
        if (!token.empty() && token[0] == '!') {
          crash = true;
          token.erase(0, 1);
        }
        int pid = -1;
        try {
          std::size_t used = 0;
          pid = std::stoi(token, &used);
          if (used != token.size()) return std::nullopt;
        } catch (...) {
          return std::nullopt;
        }
        if (pid < 0 || pid >= script.num_processes) return std::nullopt;
        script.grants.push_back(crash ? crash_grant(pid) : pid);
      }
    } else if (word == "end") {
      saw_end = true;
      break;
    } else {
      return std::nullopt;
    }
  }
  if (!saw_header || !saw_end) return std::nullopt;
  return script;
}

// ------------------------------------------------------------------ costs

double retired_unreclaimed_cost(const reclaim::ReclaimStats& s) {
  return static_cast<double>(s.retired_unreclaimed);
}

double pool_pressure_cost(const reclaim::ReclaimStats& s) {
  return static_cast<double>(s.pool_size) - static_cast<double>(s.free_nodes);
}

double guard_occupancy_cost(const reclaim::ReclaimStats& s) {
  return static_cast<double>(s.guard_slots_occupied);
}

double epoch_lag_cost(const reclaim::ReclaimStats& s) {
  return static_cast<double>(s.epoch_lag);
}

double epoch_lag_backlog_cost(const reclaim::ReclaimStats& s) {
  return static_cast<double>(s.epoch_lag) *
         static_cast<double>(s.retired_unreclaimed);
}

CostFn cost_by_name(const std::string& name) {
  if (name == "retired_unreclaimed") return retired_unreclaimed_cost;
  if (name == "pool_pressure") return pool_pressure_cost;
  if (name == "guard_occupancy") return guard_occupancy_cost;
  if (name == "epoch_lag") return epoch_lag_cost;
  if (name == "epoch_lag_backlog") return epoch_lag_backlog_cost;
  ABA_CHECK_MSG(false, "unknown schedule-search cost function name");
  return retired_unreclaimed_cost;
}

// --------------------------------------------------------------- verdicts

namespace {

// Multiset conservation: every taken value was put successfully at least as
// many times as it was taken. The invariant that survives crashes — with
// one credit per crashed victim's pending put, whose effect may have landed
// without the op completing (a push killed after the linking CAS leaves its
// value reachable; the quarantine rule keeps the node out of circulation,
// but a survivor popping it is a legitimate take).
SpecVerdict check_conservation(const std::vector<spec::Op>& ops,
                               spec::Method take,
                               const std::vector<spec::Op>& pending) {
  SpecVerdict verdict;
  verdict.checked = true;
  std::map<std::uint64_t, long> balance;
  for (const auto& op : ops) {
    if (op.method != take && op.ret == 1) ++balance[op.arg];
  }
  for (const auto& op : pending) {
    if (op.method == spec::Method::kPush || op.method == spec::Method::kEnq) {
      ++balance[op.arg];
    }
  }
  for (const auto& op : ops) {
    if (op.method == take && op.ret != 0) {
      const std::uint64_t value = op.ret - 1;  // pack_opt inverse.
      auto it = balance.find(value);
      if (it == balance.end() || it->second <= 0) {
        verdict.ok = false;
        std::ostringstream out;
        out << "conservation violated: value " << value
            << " taken by p" << op.pid << " was never put (or taken twice)";
        verdict.detail = out.str();
        return verdict;
      }
      --it->second;
    }
  }
  return verdict;
}

template <class Spec>
SpecVerdict check_linearizable_history(const std::vector<spec::Op>& ops) {
  SpecVerdict verdict;
  verdict.checked = true;
  const auto result = spec::check_linearizable<Spec>(ops, Spec::initial());
  if (!result.linearizable) {
    verdict.ok = false;
    verdict.detail = spec::explain(ops, result);
  }
  return verdict;
}

}  // namespace

SpecVerdict check_history(SpecKind kind, const std::vector<spec::Op>& ops,
                          const std::vector<int>& shard_tags, int num_shards,
                          bool has_crash, std::uint64_t ring_capacity,
                          const std::vector<spec::Op>& pending) {
  if (kind == SpecKind::kNone) return {};
  const spec::Method take =
      (kind == SpecKind::kQueue || kind == SpecKind::kRing)
          ? spec::Method::kDeq
          : spec::Method::kPop;
  // A crash truncates the victim's history: its pending op may have taken
  // effect without completing, so only conservation is checkable.
  if (has_crash) return check_conservation(ops, take, pending);
  switch (kind) {
    case SpecKind::kStack:
      return check_linearizable_history<spec::StackSpec>(ops);
    case SpecKind::kQueue:
      return check_linearizable_history<spec::QueueSpec>(ops);
    case SpecKind::kRing: {
      ABA_CHECK_MSG(ring_capacity >= 1,
                    "kRing verdict needs the fixture's ring_capacity");
      SpecVerdict verdict;
      verdict.checked = true;
      const auto result = spec::check_linearizable<spec::BoundedQueueSpec>(
          ops, spec::BoundedQueueSpec::initial(ring_capacity));
      if (!result.linearizable) {
        verdict.ok = false;
        verdict.detail = spec::explain(ops, result);
      }
      return verdict;
    }
    case SpecKind::kShardedStack: {
      ABA_CHECK_MSG(shard_tags.size() == ops.size(),
                    "sharded verdict needs one landing shard per history op");
      std::vector<std::vector<spec::Op>> by_shard(
          static_cast<std::size_t>(num_shards));
      for (std::size_t i = 0; i < ops.size(); ++i) {
        ABA_CHECK(shard_tags[i] >= 0 && shard_tags[i] < num_shards);
        by_shard[static_cast<std::size_t>(shard_tags[i])].push_back(ops[i]);
      }
      for (int shard = 0; shard < num_shards; ++shard) {
        SpecVerdict verdict = check_linearizable_history<spec::StackSpec>(
            by_shard[static_cast<std::size_t>(shard)]);
        if (!verdict.ok) {
          verdict.detail =
              "shard " + std::to_string(shard) + ": " + verdict.detail;
          return verdict;
        }
      }
      SpecVerdict verdict;
      verdict.checked = true;
      return verdict;
    }
    case SpecKind::kNone:
      break;
  }
  return {};
}

// --------------------------------------------------------------- fixtures

namespace {

using SimP = sim::SimPlatform;

// Death oracle over the simulator: a process is dead exactly when the
// engine crashed it. Installed unconditionally in every flat fixture —
// trace-neutral while nobody dies (see SearchFixture::oracle).
struct SimDeathOracle final : reclaim::DeathOracle {
  const sim::SimWorld* world;
  explicit SimDeathOracle(const sim::SimWorld* w) : world(w) {}
  bool is_dead(int pid) const override { return world->is_crashed(pid); }
};

SearchFixture fixture_shell(int n) {
  SearchFixture fx;
  fx.world = std::make_unique<sim::SimWorld>(n);
  // The search replays thousands of executions; tracing is re-enabled by
  // ScheduleExplorer::replay, which is when the trace matters.
  fx.world->set_trace_enabled(false);
  fx.history = std::make_unique<spec::History>();
  fx.oracle = std::make_unique<SimDeathOracle>(fx.world.get());
  return fx;
}

// Not every reclaimer has crash machinery (the tag-family ones are
// oracle-free by design); wire the oracle only where it exists.
template <class R>
void maybe_set_death_oracle(R& reclaimer, const reclaim::DeathOracle* oracle) {
  if constexpr (requires { reclaimer.set_death_oracle(oracle); }) {
    reclaimer.set_death_oracle(oracle);
  }
}

template <class R, class Head = structures::RawCasHead<SimP>>
SearchFixture make_stack_fixture(int n, int pool) {
  using Stack = structures::TreiberStack<SimP, Head, R>;
  SearchFixture fx = fixture_shell(n);
  auto stack = std::make_unique<Stack>(
      *fx.world, n, std::make_unique<Head>(*fx.world, n),
      Stack::partition(n, pool));
  maybe_set_death_oracle(stack->reclaimer(), fx.oracle.get());
  fx.invoker = std::make_unique<harness::StackInvoker<Stack>>(
      *fx.world, *fx.history, std::move(stack));
  fx.spec = SpecKind::kStack;
  return fx;
}

template <class R>
SearchFixture make_queue_fixture(int n, int pool) {
  using Queue = structures::MsQueue<SimP, R>;
  SearchFixture fx = fixture_shell(n);
  auto queue = std::make_unique<Queue>(*fx.world, n, pool);
  maybe_set_death_oracle(queue->reclaimer(), fx.oracle.get());
  fx.invoker = std::make_unique<harness::QueueInvoker<Queue>>(
      *fx.world, *fx.history, std::move(queue));
  fx.spec = SpecKind::kQueue;
  return fx;
}

// The MPMC ring under the model checker: no reclaimer (the per-slot
// sequence words ARE the ABA answer — there are no nodes to reclaim, so
// every cost function reads zero and the fixture is driven purely for its
// spec verdict). Capacity 2 (the minimum): the full and empty boundaries —
// where the strict-refusal contract bites — are a single op away from any
// state, so even small search budgets cross them constantly.
SearchFixture make_ring_fixture(int n) {
  using Ring = structures::MpmcRing<SimP>;
  constexpr std::size_t kCapacity = 2;
  SearchFixture fx = fixture_shell(n);
  fx.invoker = std::make_unique<harness::ContainerInvoker<Ring>>(
      *fx.world, *fx.history,
      std::make_unique<Ring>(*fx.world, n, kCapacity));
  fx.spec = SpecKind::kRing;
  fx.ring_capacity = kCapacity;
  return fx;
}

SearchFixture make_sharded_stack_fixture(int n, int pool) {
  using Stack =
      structures::ShardedTreiberStack<SimP, structures::RawCasHead<SimP>,
                                      reclaim::CachedHazardPointerReclaimer<SimP>,
                                      2>;
  SearchFixture fx = fixture_shell(n);
  auto invoker = std::make_unique<harness::ShardedStackInvoker<Stack>>(
      *fx.world, *fx.history,
      std::make_unique<Stack>(*fx.world, n, Stack::make_heads(*fx.world, n),
                              pool / 2));
  auto* tagging = invoker.get();
  fx.shard_tags = [tagging]() -> const std::vector<int>& {
    return tagging->shard_of();
  };
  fx.num_shards = 2;
  fx.invoker = std::move(invoker);
  fx.spec = SpecKind::kShardedStack;
  return fx;
}

using Hazard = reclaim::HazardPointerReclaimer<SimP>;
using Cached = reclaim::CachedHazardPointerReclaimer<SimP>;
using Epoch = reclaim::EpochBasedReclaimer<SimP>;
using Deferred = reclaim::DeferredEpochReclaimer<SimP>;
using Tagged = reclaim::TaggedReclaimer<SimP>;
using Leaky = reclaim::LeakyReclaimer<SimP>;
using Mutant = reclaim::MutantTaggedReclaimer<SimP>;
using TaggedHead = structures::TaggedCasHead<SimP>;
using reclaim::LeaseMutation;

struct FixtureEntry {
  const char* name;
  SearchFixture (*make)(int n, int pool);
};

// The fixture registry, in reclaim_fixture_names() order — the committed
// .sched meta lines and the demo's output name fixtures by these strings.
constexpr FixtureEntry kFixtures[] = {
    {"stack_hazard", make_stack_fixture<Hazard>},
    {"stack_hazard_cached", make_stack_fixture<Cached>},
    {"stack_epoch", make_stack_fixture<Epoch>},
    // Deferred-announce variant: the announcement is cached across ops and
    // only refreshed on an epoch miss, so most begin_ops take one shared
    // read and zero stores. The searcher probes the announce-validate
    // window that the caching widens.
    {"stack_epoch_deferred", make_stack_fixture<Deferred>},
    // The shipped immediate-reuse configuration: the TaggedCasHead's
    // per-swing version bump is what detects recycled indices.
    {"stack_tagged", make_stack_fixture<Tagged, TaggedHead>},
    {"stack_leaky", make_stack_fixture<Leaky>},
    // The seeded bug: immediate reuse on a raw head — no version bump
    // anywhere. The spec-driven search must convict this one.
    {"stack_mutant_tagged", make_stack_fixture<Mutant>},
    {"queue_hazard", make_queue_fixture<Hazard>},
    {"queue_hazard_cached", make_queue_fixture<Cached>},
    {"queue_epoch", make_queue_fixture<Epoch>},
    {"queue_epoch_deferred", make_queue_fixture<Deferred>},
    {"sharded_stack_hazard_cached", make_sharded_stack_fixture},
    // Reclaimer-free: pool_per_process does not apply.
    {"ring_mpmc", [](int n, int) { return make_ring_fixture(n); }},
    // ---- The crash-robust shm tier, sim-hosted (sim/sim_lease.h): real
    // PidLeaseTable protocol + the hazard and leased-epoch reclaimers over
    // SharedBook and a simulated shared-segment arena. Crash grants (`!p`)
    // drive the actual suspect -> confirm -> seize/veto/quarantine
    // machinery under the search.
    {"stack_leased_hazard", make_stack_fixture<sim::SimLeasedHazardReclaimer>},
    {"stack_leased_hazard_cached",
     make_stack_fixture<sim::SimLeasedCachedHazardReclaimer>},
    {"stack_leased_epoch", make_stack_fixture<sim::SimLeasedEpochReclaimer>},
    // Every retire routed through the retire_batch pending window (chunk of
    // one): the searched mid-batch crash juncture of the staged hand-off.
    {"stack_leased_epoch_batched",
     make_stack_fixture<sim::SimLeasedEpochBatchedReclaimer>},
    {"queue_leased_hazard", make_queue_fixture<sim::SimLeasedHazardReclaimer>},
    {"queue_leased_hazard_cached",
     make_queue_fixture<sim::SimLeasedCachedHazardReclaimer>},
    {"queue_leased_epoch", make_queue_fixture<sim::SimLeasedEpochReclaimer>},
    // ---- The lease-mutant zoo (reclaim/mutant.h, LeaseMutation): each drops
    // exactly one safety decision of the death handshake. The bounded search
    // must convict all three; the all-kNone fixtures above must survive the
    // identical budget.
    {"stack_leased_mutant_stale_confirm",
     make_stack_fixture<
         sim::SimLeasedHazardReclaimerT<false, LeaseMutation::kStaleConfirm>>},
    {"stack_leased_mutant_no_quarantine",
     make_stack_fixture<sim::SimLeasedHazardReclaimerT<
         false, LeaseMutation::kNone, LeaseMutation::kNoQuarantine>>},
    {"stack_leased_mutant_no_restamp",
     make_stack_fixture<sim::SimLeasedEpochReclaimerT<
         LeaseMutation::kNone, LeaseMutation::kNoRestamp>>},
};

}  // namespace

SearchFixtureFactory reclaim_fixture(const std::string& name,
                                     int pool_per_process) {
  const int pool = pool_per_process;
  ABA_CHECK(pool >= 1);
  for (const FixtureEntry& entry : kFixtures) {
    if (name == entry.name) {
      return [make = entry.make, pool](int n) { return make(n, pool); };
    }
  }
  ABA_CHECK_MSG(false, "unknown schedule-search fixture name");
  return nullptr;
}

std::vector<std::string> reclaim_fixture_names() {
  std::vector<std::string> names;
  for (const FixtureEntry& entry : kFixtures) names.emplace_back(entry.name);
  return names;
}

std::vector<harness::WorkloadOp> storm_workload(const std::string& fixture,
                                                int num_processes, int cycles) {
  ABA_CHECK(num_processes >= 2 && cycles >= 1);
  const bool is_queue = fixture.rfind("queue", 0) == 0 ||
                        fixture.rfind("ring", 0) == 0;
  const spec::Method put = is_queue ? spec::Method::kEnq : spec::Method::kPush;
  const spec::Method take = is_queue ? spec::Method::kDeq : spec::Method::kPop;
  std::vector<harness::WorkloadOp> workload;
  // A priming put so a reader that runs first has a node to protect.
  workload.push_back({0, put, 1});
  for (int i = 0; i < cycles; ++i) {
    workload.push_back({0, put, static_cast<std::uint64_t>(100 + i)});
    workload.push_back({0, take, 0});
  }
  workload.push_back({0, take, 0});  // Drain the prime.
  for (int pid = 1; pid < num_processes; ++pid) {
    workload.push_back({pid, take, 0});  // The parkable readers.
  }
  return workload;
}

std::vector<WorkloadCandidate> workload_candidates(const std::string& fixture,
                                                   int num_processes,
                                                   int cycles) {
  ABA_CHECK(num_processes >= 2 && cycles >= 1);
  const bool is_queue = fixture.rfind("queue", 0) == 0 ||
                        fixture.rfind("ring", 0) == 0;
  const spec::Method put = is_queue ? spec::Method::kEnq : spec::Method::kPush;
  const spec::Method take = is_queue ? spec::Method::kDeq : spec::Method::kPop;
  std::vector<WorkloadCandidate> candidates;

  candidates.push_back(
      {"storm", storm_workload(fixture, num_processes, cycles)});

  {
    // Two stormers churning the pool; at n == 2 the second collapses onto
    // pid 0 (a double-length storm), which is still a legal shape.
    const int second = num_processes >= 3 ? 1 : 0;
    std::vector<harness::WorkloadOp> w;
    w.push_back({0, put, 1});
    for (int i = 0; i < cycles; ++i) {
      w.push_back({0, put, static_cast<std::uint64_t>(100 + i)});
      w.push_back({second, put, static_cast<std::uint64_t>(200 + i)});
      w.push_back({0, take, 0});
      w.push_back({second, take, 0});
    }
    w.push_back({0, take, 0});  // Drain the prime.
    for (int pid = second + 1; pid < num_processes; ++pid) {
      w.push_back({pid, take, 0});
    }
    candidates.push_back({"double_storm", std::move(w)});
  }

  {
    // All puts then all takes: the maximal-occupancy shape. Failed puts
    // under pool exhaustion are legal no-ops in the specs (ret == 0).
    std::vector<harness::WorkloadOp> w;
    for (int i = 0; i <= cycles; ++i) {
      w.push_back({0, put, static_cast<std::uint64_t>(300 + i)});
    }
    for (int i = 0; i <= cycles; ++i) w.push_back({0, take, 0});
    for (int pid = 1; pid < num_processes; ++pid) {
      w.push_back({pid, take, 0});
    }
    candidates.push_back({"put_surge", std::move(w)});
  }

  {
    // The storm against readers that each take twice: two parkable
    // vulnerable windows per reader instead of one.
    std::vector<harness::WorkloadOp> w;
    w.push_back({0, put, 1});
    for (int i = 0; i < cycles; ++i) {
      w.push_back({0, put, static_cast<std::uint64_t>(400 + i)});
      w.push_back({0, take, 0});
    }
    w.push_back({0, take, 0});  // Drain the prime.
    for (int pid = 1; pid < num_processes; ++pid) {
      w.push_back({pid, take, 0});
      w.push_back({pid, take, 0});
    }
    candidates.push_back({"reader_pairs", std::move(w)});
  }

  if (num_processes == 2) {
    // Two TRUE stormers — the n=2 shape double_storm cannot express (it
    // collapses its second stormer onto pid 0). This is the only two-process
    // workload where a crash can kill a PUSHER while the survivor still
    // allocates: only allocation scans drive the suspect/confirm death
    // handshake, so a reader-only peer could never expropriate the victim —
    // the shape the leased-reclaimer crash searches need. At n >= 3
    // double_storm already has a real second stormer.
    std::vector<harness::WorkloadOp> w;
    w.push_back({0, put, 1});
    for (int i = 0; i < cycles; ++i) {
      w.push_back({0, put, static_cast<std::uint64_t>(500 + i)});
      w.push_back({1, put, static_cast<std::uint64_t>(600 + i)});
      w.push_back({0, take, 0});
      w.push_back({1, take, 0});
    }
    // Two drain takes, not one: a victim crashed mid-push leaves its node
    // linked at the stack bottom, so observing a reclamation bug there (a
    // doubly-circulating node popping the same value twice) needs the
    // survivor to pop one past its own balanced cycles. In clean executions
    // the extra take legally observes empty.
    w.push_back({0, take, 0});
    w.push_back({0, take, 0});
    candidates.push_back({"crossed_storm", std::move(w)});
  }

  return candidates;
}

// ----------------------------------------------------------------- runner

ScheduleRunner::ScheduleRunner(SearchFixture fixture,
                               std::vector<harness::WorkloadOp> workload,
                               CostFn cost)
    : fixture_(std::move(fixture)),
      workload_(std::move(workload)),
      cost_(std::move(cost)) {
  const int n = fixture_.world->num_processes();
  queues_.resize(static_cast<std::size_t>(n));
  next_op_.assign(static_cast<std::size_t>(n), 0);
  for (const auto& op : workload_) {
    ABA_CHECK(op.pid >= 0 && op.pid < n);
    queues_[static_cast<std::size_t>(op.pid)].push_back(op);
  }
  sample();  // Baseline (grant 0).
}

bool ScheduleRunner::runnable(int pid) const {
  if (fixture_.world->poised(pid).has_value()) return true;
  return fixture_.world->is_idle(pid) &&
         next_op_[static_cast<std::size_t>(pid)] <
             queues_[static_cast<std::size_t>(pid)].size();
}

bool ScheduleRunner::all_done() const {
  for (int pid = 0; pid < num_processes(); ++pid) {
    // A crashed process is done by definition: it never runs again and its
    // remaining queued ops are abandoned with it.
    if (fixture_.world->is_crashed(pid)) continue;
    if (!fixture_.world->is_idle(pid)) return false;
    if (next_op_[static_cast<std::size_t>(pid)] <
        queues_[static_cast<std::size_t>(pid)].size()) {
      return false;
    }
  }
  return true;
}

std::vector<int> ScheduleRunner::runnable_pids() const {
  std::vector<int> pids;
  for (int pid = 0; pid < num_processes(); ++pid) {
    if (runnable(pid)) pids.push_back(pid);
  }
  return pids;
}

void ScheduleRunner::grant(int pid) {
  if (is_crash_grant(pid)) {
    const int victim = crash_victim(pid);
    ABA_CHECK_MSG(victim < num_processes() &&
                      !fixture_.world->is_crashed(victim),
                  "schedule crashes an unknown or already-dead process");
    fixture_.world->crash(victim);
    grants_.push_back(pid);
    sample();
    return;
  }
  ABA_CHECK_MSG(runnable(pid), "schedule grants a non-runnable process");
  if (fixture_.world->poised(pid).has_value()) {
    fixture_.world->step(pid);
  } else {
    const harness::WorkloadOp& op =
        queues_[static_cast<std::size_t>(pid)]
               [next_op_[static_cast<std::size_t>(pid)]++];
    fixture_.invoker->invoke(op);
  }
  grants_.push_back(pid);
  sample();
}

void ScheduleRunner::grant_while_runnable(int pid, std::uint64_t max_grants) {
  for (std::uint64_t i = 0; i < max_grants && runnable(pid); ++i) grant(pid);
}

int ScheduleRunner::ops_remaining(int pid) const {
  if (fixture_.world->is_crashed(pid)) return 0;  // Abandoned with the crash.
  const std::size_t queued =
      queues_[static_cast<std::size_t>(pid)].size() -
      next_op_[static_cast<std::size_t>(pid)];
  return static_cast<int>(queued) + (fixture_.world->is_idle(pid) ? 0 : 1);
}

bool ScheduleRunner::has_crash() const {
  // A crash grant is the usual source, but a process can also die with no
  // crash grant in the script: a self-fence (reclaim::LeaseRevoked escaping
  // a method once the lease tier expropriates a suspect). The history is
  // truncated either way, so verdicts must relax to conservation-only
  // whenever anyone is dead — ask the world, not the grant log.
  for (int pid = 0; pid < num_processes(); ++pid) {
    if (fixture_.world->is_crashed(pid)) return true;
  }
  return false;
}

ScheduleScript ScheduleRunner::script() const {
  ScheduleScript script;
  script.num_processes = num_processes();
  script.workload = workload_;
  script.grants = grants_;
  return script;
}

void ScheduleRunner::sample() {
  const reclaim::ReclaimStats stats = fixture_.invoker->reclaim_stats();
  const double c = cost_(stats);
  if (c > peak_) {
    peak_ = c;
    peak_grant_ = grants_.size();
    peak_stats_ = stats;
  }
}

// --------------------------------------------------------------- explorer

// Live search state: a runner positioned at the end of its grant sequence
// plus the preemption accounting the context bound prunes on.
struct ScheduleExplorer::Live {
  ScheduleRunner runner;
  int last_pid = -1;
  int switches = 0;
  int crashes = 0;

  Live(SearchFixture fixture, std::vector<harness::WorkloadOp> workload,
       CostFn cost)
      : runner(std::move(fixture), std::move(workload), std::move(cost)) {}

  // The one advance rule: granting a pid different from the last while the
  // last is still runnable is a preemption. Crash grants are not steps of
  // any process, so they consume no preemption budget; a crash of the
  // current process just clears the continuity anchor.
  void advance(int pid) {
    if (is_crash_grant(pid)) {
      runner.grant(pid);
      ++crashes;
      if (crash_victim(pid) == last_pid) last_pid = -1;
      return;
    }
    if (last_pid >= 0 && pid != last_pid && runner.runnable(last_pid)) {
      ++switches;
    }
    runner.grant(pid);
    last_pid = pid;
  }
};

ScheduleExplorer::ScheduleExplorer(SearchFixtureFactory factory,
                                   int num_processes,
                                   std::vector<harness::WorkloadOp> workload,
                                   CostFn cost, SearchOptions options)
    : factory_(std::move(factory)),
      num_processes_(num_processes),
      workload_(std::move(workload)),
      cost_(std::move(cost)),
      options_(options) {
  ABA_CHECK(num_processes_ >= 1);
}

std::unique_ptr<ScheduleExplorer::Live> ScheduleExplorer::make_live() const {
  return std::make_unique<Live>(factory_(num_processes_), workload_, cost_);
}

std::unique_ptr<ScheduleExplorer::Live> ScheduleExplorer::replay_prefix(
    const std::vector<int>& grants) const {
  auto live = make_live();
  for (const int pid : grants) live->advance(pid);
  return live;
}

// Runnable choices this juncture, context-bound-feasible only, ordered by
// the search heuristic: non-vulnerable before vulnerable (park the pinned
// reader), fewer remaining ops first (drive the designated victim into its
// protected region, then let the storm run), continuity before preemption,
// pid as the final tie-break.
std::vector<int> ScheduleExplorer::ordered_choices(Live& live) const {
  std::vector<int> choices;
  const bool last_runnable =
      live.last_pid >= 0 && live.runner.runnable(live.last_pid);
  for (const int pid : live.runner.runnable_pids()) {
    const bool preempts = last_runnable && pid != live.last_pid;
    if (preempts && live.switches >= options_.context_bound) continue;
    choices.push_back(pid);
  }
  harness::Invoker& invoker = live.runner.invoker();
  const auto rank = [&](int pid) {
    const bool vulnerable =
        options_.park_vulnerable &&
        reclaim::is_vulnerable(invoker.reclaim_phase(pid));
    return std::make_tuple(vulnerable ? 1 : 0, live.runner.ops_remaining(pid),
                           pid == live.last_pid ? 0 : 1, pid);
  };
  std::stable_sort(choices.begin(), choices.end(),
                   [&](int a, int b) { return rank(a) < rank(b); });
  // Crash choices, ranked ahead of every step grant so the preferred DFS
  // path explores the kill first: a process poised inside a vulnerable or
  // mid-retire phase may die right there, leaving its published guard or
  // frozen epoch announcement (or a half-finished retire) for the
  // survivors' expropriation path to clean up.
  if (live.crashes < options_.max_crashes) {
    std::vector<int> crash_choices;
    const sim::SimWorld& world = *live.runner.fixture().world;
    for (int pid = 0; pid < live.runner.num_processes(); ++pid) {
      if (!world.poised(pid).has_value()) continue;
      const reclaim::ReclaimPhase phase = invoker.reclaim_phase(pid);
      if (reclaim::is_vulnerable(phase) ||
          phase == reclaim::ReclaimPhase::kMidRetire ||
          phase == reclaim::ReclaimPhase::kMidAllocate) {
        crash_choices.push_back(crash_grant(pid));
      }
    }
    choices.insert(choices.begin(), crash_choices.begin(),
                   crash_choices.end());
  }
  return choices;
}

namespace {

// Violations beyond this many are still *detected* (the search stops on the
// first one by default) but not stored — each carries a full script.
constexpr std::size_t kMaxRecordedViolations = 8;

// What a grant does at the current configuration, for the independence
// relation. An invoke grant runs only process-local code up to the first
// announcement; a step grant executes the poised shared-memory op; a crash
// grant kills its victim (and death rewires reclaimer bookkeeping across
// processes via expropriation, so crashes conflict with everything).
struct GrantKind {
  bool crash = false;
  bool invoke = false;
  sim::PendingOp op;  // Valid iff step grant (!crash && !invoke).
};

GrantKind classify_grant(const sim::SimWorld& world, int grant) {
  GrantKind kind;
  if (is_crash_grant(grant)) {
    kind.crash = true;
    return kind;
  }
  const std::optional<sim::PendingOp> poised = world.poised(grant);
  if (!poised.has_value()) {
    kind.invoke = true;
    return kind;
  }
  kind.op = *poised;
  return kind;
}

// Two shared-memory steps commute iff they touch different objects or
// neither writes.
bool ops_independent(const sim::PendingOp& a, const sim::PendingOp& b) {
  if (a.obj != b.obj) return true;
  return a.kind == sim::OpKind::kRead && b.kind == sim::OpKind::kRead;
}

// The process a grant belongs to (its victim, for a crash grant). Two
// grants of the same process are always dependent: program order.
int grant_pid(int grant) {
  return is_crash_grant(grant) ? crash_victim(grant) : grant;
}

}  // namespace

// The DPOR configuration hash: everything that determines the future of the
// search from this juncture. SimWorld::signature_key() covers object values
// and poised ops; the rest is engine-side — remaining per-process programs,
// the spent preemption/crash budget (feasible continuations depend on it),
// the continuity anchor, and the reclaimer's thread-private bookkeeping
// (reclaim::Fingerprint) that the signature cannot see. With spec verdicts
// on, the completed-op history is folded in too: two configurations must
// agree on what they will be *judged* on, not just on what they will do.
std::uint64_t ScheduleExplorer::state_key(const Live& live) const {
  reclaim::Fingerprint fp;
  fp.mix_range(live.runner.fixture().world->signature_key());
  // The per-process observation hashes pin the *local* continuations, which
  // the signature deliberately omits — two program points can announce the
  // same PendingOp (a loop-top read vs its validation re-read) with very
  // different futures. Commuting independent steps leaves every process's
  // own observation sequence unchanged, so equivalent interleavings still
  // collide.
  fp.mix_range(live.runner.fixture().world->observation_hashes());
  fp.mix_range(live.runner.op_cursors());
  fp.mix(static_cast<std::uint64_t>(live.last_pid + 1));
  fp.mix(static_cast<std::uint64_t>(live.switches));
  fp.mix(static_cast<std::uint64_t>(live.crashes));
  fp.mix(live.runner.fixture().invoker->reclaim_fingerprint());
  if (options_.check_spec) {
    for (const auto& op : live.runner.fixture().history->completed_ops()) {
      fp.mix(static_cast<std::uint64_t>(op.pid));
      fp.mix(static_cast<std::uint64_t>(op.method));
      fp.mix(op.arg);
      fp.mix(op.ret);
    }
  }
  return fp.value();
}

bool ScheduleExplorer::stopped() const {
  return result_.budget_exhausted ||
         (options_.stop_on_violation && result_.violation_found());
}

void ScheduleExplorer::record(Live& live) {
  FoundSchedule found;
  found.script = live.runner.script();
  found.peak_cost = live.runner.peak();
  found.peak_grant = live.runner.peak_grant();
  if (options_.check_spec) {
    const SearchFixture& fx = live.runner.fixture();
    static const std::vector<int> kNoTags;
    const std::vector<int>& tags = fx.shard_tags ? fx.shard_tags() : kNoTags;
    const SpecVerdict verdict =
        check_history(fx.spec, fx.history->completed_ops(), tags,
                      fx.num_shards, live.runner.has_crash(),
                      fx.ring_capacity, fx.history->pending_ops());
    if (verdict.checked && !verdict.ok &&
        result_.violations.size() < kMaxRecordedViolations) {
      result_.violations.push_back({found.script, verdict.detail});
    }
  }
  auto& best = result_.best;
  const auto pos = std::find_if(
      best.begin(), best.end(),
      [&](const FoundSchedule& f) { return found.peak_cost > f.peak_cost; });
  best.insert(pos, std::move(found));
  if (best.size() > static_cast<std::size_t>(options_.top_k)) {
    best.resize(static_cast<std::size_t>(options_.top_k));
  }
}

void ScheduleExplorer::dfs(std::unique_ptr<Live> live, SleepSet sleep) {
  // Sleep sets are sound only when the context bound cannot exclude any
  // interleaving: a slept order's explored representative is a commutation
  // with a different preemption count, which a finite bound may have cut
  // (see the file comment in schedule_search.h).
  const bool sleep_active =
      options_.dpor && options_.context_bound >= kUnboundedContextBound;
  // Slept-choice matching. A slept entry names a *transition* (pid plus the
  // exact poised op, or the pid's next invoke), not a bare pid — the same
  // pid poised at a different op later is a different transition.
  const auto same_op = [](const sim::PendingOp& a, const sim::PendingOp& b) {
    return a.obj == b.obj && a.kind == b.kind && a.arg0 == b.arg0 &&
           a.arg1 == b.arg1;
  };
  const auto matches = [&](const SleptChoice& s, int grant,
                           const GrantKind& k) {
    return s.grant == grant && s.invoke == k.invoke &&
           (k.invoke || same_op(s.op, k.op));
  };
  // A slept entry survives past an executed grant iff the two commute:
  // different processes, no crash involved, no same-object write race.
  const auto still_asleep = [&](const SleptChoice& s, int grant,
                                const GrantKind& k) {
    if (k.crash) return false;
    if (grant_pid(s.grant) == grant_pid(grant)) return false;
    if (s.invoke || k.invoke) return true;
    return ops_independent(s.op, k.op);
  };

  for (;;) {
    if (stopped()) return;
    if (live->runner.all_done()) {
      record(*live);
      if (++result_.executions >= options_.max_executions) {
        result_.budget_exhausted = true;
      }
      return;
    }
    if (result_.grants >= options_.max_grants) {
      result_.budget_exhausted = true;
      return;
    }
    if (options_.max_grants_per_execution != 0 &&
        live->runner.grants().size() >= options_.max_grants_per_execution) {
      // Bounded-wait cut for non-solo-terminating fixtures: abandon this
      // path before its spin loop exhausts the stack (see SearchOptions).
      ++result_.truncated_paths;
      return;
    }
    ++result_.nodes;

    // Visited-state dominance: a revisit whose recorded running peak is at
    // least ours already scored every completion from here at least as high
    // (peak(completion) = max(peak_so_far, future(state)), and the future
    // is a function of the state alone).
    if (options_.dpor) {
      std::uint64_t key = state_key(*live);
      if (sleep_active && !sleep.empty()) {
        // A state first explored under one sleep set must not prune a
        // revisit under a different one — the revisit may explore choices
        // the first visit slept — so the sleep set is part of the cache
        // identity. XOR keeps the key independent of entry order.
        std::uint64_t sleep_fp = 0;
        for (const SleptChoice& s : sleep) {
          reclaim::Fingerprint f;
          f.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.grant)));
          f.mix(s.invoke ? 1 : 0);
          f.mix(static_cast<std::uint64_t>(s.op.obj));
          f.mix(static_cast<std::uint64_t>(s.op.kind));
          f.mix(s.op.arg0);
          f.mix(s.op.arg1);
          sleep_fp ^= f.value();
        }
        reclaim::Fingerprint f;
        f.mix(key);
        f.mix(sleep_fp);
        key = f.value();
      }
      const double peak = live->runner.peak();
      auto [it, inserted] = visited_.try_emplace(key, peak);
      if (!inserted) {
        if (it->second >= peak) {
          ++result_.pruned_states;
          return;
        }
        it->second = peak;
      }
    }

    std::vector<int> choices = ordered_choices(*live);
    ABA_CHECK_MSG(!choices.empty(),
                  "no feasible grant but work remains (context bound cannot "
                  "exclude the running process)");
    const sim::SimWorld& world = *live->runner.fixture().world;
    std::vector<GrantKind> kinds;
    kinds.reserve(choices.size());
    for (const int grant : choices) {
      kinds.push_back(classify_grant(world, grant));
    }

    // Sleep-set filter: a choice that commuted with every grant since an
    // explored sibling took it reaches a configuration in that sibling's
    // Mazurkiewicz trace — skip it here.
    if (sleep_active && !sleep.empty()) {
      std::vector<int> kept;
      std::vector<GrantKind> kept_kinds;
      for (std::size_t i = 0; i < choices.size(); ++i) {
        const bool slept = std::any_of(
            sleep.begin(), sleep.end(), [&](const SleptChoice& s) {
              return matches(s, choices[i], kinds[i]);
            });
        if (slept) {
          ++result_.pruned_sleep;
          continue;
        }
        kept.push_back(choices[i]);
        kept_kinds.push_back(kinds[i]);
      }
      choices = std::move(kept);
      kinds = std::move(kept_kinds);
      if (choices.empty()) return;  // Fully covered by explored siblings.
    }

    if (choices.size() == 1) {
      if (sleep_active && !sleep.empty()) {
        // Wake slept transitions the executed grant conflicts with.
        SleepSet kept;
        for (const SleptChoice& s : sleep) {
          if (still_asleep(s, choices[0], kinds[0])) kept.push_back(s);
        }
        sleep = std::move(kept);
      }
      live->advance(choices[0]);
      ++result_.grants;
      continue;
    }

    // Branch point: the heuristic-preferred child inherits the live run
    // (no replay for the leftmost path — the fix for re-running fixture
    // setup per node); only the remaining siblings are rebuilt by prefix
    // replay (Exec(C, sigma)), and each lands directly on the child's
    // visited-state check, so a revisited subtree costs one replay, never
    // a re-exploration.
    const std::vector<int> prefix = live->runner.grants();
    bool live_used = false;
    for (std::size_t i = 0; i < choices.size(); ++i) {
      if (stopped()) return;
      std::unique_ptr<Live> child;
      if (!live_used) {
        child = std::move(live);
        live_used = true;
      } else {
        child = replay_prefix(prefix);
        result_.grants += prefix.size();
        result_.replayed_grants += prefix.size();
      }
      SleepSet child_sleep;
      if (sleep_active) {
        for (const SleptChoice& s : sleep) {
          if (still_asleep(s, choices[i], kinds[i])) child_sleep.push_back(s);
        }
        for (std::size_t j = 0; j < i; ++j) {
          if (kinds[j].crash) continue;  // Dependent with everything.
          const SleptChoice s{choices[j], kinds[j].invoke, kinds[j].op};
          if (still_asleep(s, choices[i], kinds[i])) child_sleep.push_back(s);
        }
      }
      child->advance(choices[i]);
      ++result_.grants;
      dfs(std::move(child), std::move(child_sleep));
    }
    return;
  }
}

SearchResult ScheduleExplorer::run() {
  result_ = SearchResult{};
  visited_.clear();
  // The staged prefix, if any, is executed before the first juncture; its
  // grants count against the global budget and its switches/crashes charge
  // the same per-schedule budgets the DFS enforces (Live::advance keeps the
  // books either way), so a preluded conviction reports honest costs.
  auto live = make_live();
  for (const int grant : options_.prelude) {
    ABA_CHECK_MSG(is_crash_grant(grant) ? !live->runner.fixture()
                                               .world->is_crashed(
                                                   crash_victim(grant))
                                        : live->runner.runnable(grant),
                  "search prelude grants a process that cannot run");
    live->advance(grant);
    ++result_.grants;
  }
  dfs(std::move(live), SleepSet{});
  return std::move(result_);
}

WorkloadSearchResult search_workloads(
    const SearchFixtureFactory& factory, int num_processes,
    const std::vector<WorkloadCandidate>& candidates, const CostFn& cost,
    const SearchOptions& options) {
  ABA_CHECK_MSG(!candidates.empty(), "workload search needs candidates");
  WorkloadSearchResult result;
  bool first = true;
  for (const WorkloadCandidate& candidate : candidates) {
    ScheduleExplorer explorer(factory, num_processes, candidate.workload, cost,
                              options);
    SearchResult search = explorer.run();
    const double peak = search.top() ? search.top()->peak_cost : 0.0;
    result.peaks.emplace_back(candidate.name, peak);
    const double best_peak =
        result.best.top() ? result.best.top()->peak_cost : 0.0;
    if (first || peak > best_peak) {
      first = false;
      result.best_name = candidate.name;
      result.best = std::move(search);
    }
  }
  for (FoundSchedule& found : result.best.best) {
    found.script.meta["workload"] = result.best_name;
  }
  for (FoundViolation& violation : result.best.violations) {
    violation.script.meta["workload"] = result.best_name;
  }
  return result;
}

ReplayResult ScheduleExplorer::replay(const SearchFixtureFactory& factory,
                                      const ScheduleScript& script,
                                      const CostFn& cost) {
  SearchFixture fixture = factory(script.num_processes);
  fixture.world->set_trace_enabled(true);
  fixture.world->clear_trace();
  ScheduleRunner runner(std::move(fixture), script.workload, cost);
  for (const int pid : script.grants) runner.grant(pid);
  // Drain any remainder deterministically so the history is complete.
  while (!runner.all_done()) {
    bool moved = false;
    for (int pid = 0; pid < runner.num_processes(); ++pid) {
      if (runner.runnable(pid)) {
        runner.grant(pid);
        moved = true;
        break;
      }
    }
    ABA_CHECK_MSG(moved, "replay drain: no runnable process but work remains");
  }
  ReplayResult result;
  result.peak_cost = runner.peak();
  result.peak_grant = runner.peak_grant();
  result.peak_stats = runner.peak_stats();
  result.final_stats = runner.invoker().reclaim_stats();
  result.trace = runner.fixture().world->trace_copy();
  // completed_ops: identical to ops() for crash-free scripts; a crashed
  // process's final op never completes and is deliberately excluded.
  result.history = runner.fixture().history->completed_ops();
  if (runner.fixture().shard_tags) {
    result.shard_tags = runner.fixture().shard_tags();
  }
  result.num_shards = runner.fixture().num_shards;
  result.verdict =
      check_history(runner.fixture().spec, result.history, result.shard_tags,
                    result.num_shards, runner.has_crash(),
                    runner.fixture().ring_capacity,
                    runner.fixture().history->pending_ops());
  return result;
}

}  // namespace aba::search
