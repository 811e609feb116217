// Tests for the sharding layer (structures/sharded.h, util/shard.h).
//
// The contract under test is the relaxed-pool semantics the header
// documents: each shard's sub-history is linearizable against the *exact*
// stack/queue spec (sharding adds no shared state, so every shard is just
// an ordinary TreiberStack/MsQueue), the composite conserves the value
// multiset, and "empty" is a per-scan observation charged to the home
// shard. Coverage:
//
//   * routing units: the home-shard hash is balanced over dense pids and
//     the probe order visits every shard exactly once;
//   * sequential semantics: per-shard LIFO/FIFO, elastic push/enqueue
//     fall-through under pool pressure, steal on empty home shard, one
//     shard degenerating to one global LIFO;
//   * the router's composite introspection: pool size, reclaimer stats and
//     unreclaimed garbage sum over shards, a parked guard on any shard is
//     the process's phase, detach releases cached guards on every shard,
//     and the routing tags are part of the fingerprint;
//   * the deterministic steal race: a stealer and the home-shard popper
//     compete for the same last element under a step-controlled sim
//     schedule — exactly one wins, in both resolution orders, and the
//     per-shard histories stay linearizable;
//   * random-schedule sweeps across (shards × head policy × reclaimer,
//     cached-guard hazard and deferred epochs included), splitting each
//     history by the invoker's shard tags and checking every sub-history,
//     plus multiset conservation;
//   * Fast ≡ Counted determinism on a token-serialized native workload for
//     both sharded structures (the platform policy changes layout and
//     instrumentation, never results);
//   * native balanced-accounting stress, including cached-guard and
//     deferred-epoch queues that detach (the suite CI's TSan job runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/llsc_single_cas.h"
#include "harness/adapters.h"
#include "harness/harness.h"
#include "native/native_platform.h"
#include "reclaim/epoch.h"
#include "reclaim/hazard_pointer.h"
#include "reclaim/leaky.h"
#include "reclaim/tagged.h"
#include "sim/sim_platform.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "structures/sharded.h"
#include "util/rng.h"
#include "util/shard.h"

namespace aba::structures {
namespace {

using SimP = sim::SimPlatform;
using NativeP = native::NativePlatform<native::Counted>;
using harness::WorkloadOp;
using spec::Method;

// ------------------------------------------------------------- routing

static_assert(util::home_shard(0, 4) == 0);
static_assert(util::home_shard(5, 4) == 1);
static_assert(util::home_shard(7, 1) == 0);
static_assert(util::probe_shard(2, 0, 4) == 2);
static_assert(util::probe_shard(2, 3, 4) == 1);

TEST(ShardRouting, HomeShardBalancedOverDensePids) {
  for (int shards : {1, 2, 3, 4, 8}) {
    for (int n : {1, 2, 4, 8, 13}) {
      std::vector<int> count(static_cast<std::size_t>(shards), 0);
      for (int pid = 0; pid < n; ++pid) {
        const int s = util::home_shard(pid, shards);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, shards);
        ++count[static_cast<std::size_t>(s)];
      }
      const auto [lo, hi] = std::minmax_element(count.begin(), count.end());
      EXPECT_LE(*hi - *lo, 1) << "shards=" << shards << " n=" << n;
    }
  }
}

TEST(ShardRouting, ProbeVisitsEveryShardExactlyOnce) {
  for (int shards : {1, 2, 4, 8}) {
    for (int home = 0; home < shards; ++home) {
      std::vector<bool> seen(static_cast<std::size_t>(shards), false);
      for (int attempt = 0; attempt < shards; ++attempt) {
        const int s = util::probe_shard(home, attempt, shards);
        EXPECT_FALSE(seen[static_cast<std::size_t>(s)]);
        seen[static_cast<std::size_t>(s)] = true;
      }
      EXPECT_EQ(util::probe_shard(home, 0, shards), home);
    }
  }
}

// ------------------------------------------------------------- fixtures

// Sharded stack whose head policy is (Env&, n)-constructible.
template <class Head, class R, int kShards>
struct SweepShardedStack : ShardedTreiberStack<SimP, Head, R, kShards> {
  using Base = ShardedTreiberStack<SimP, Head, R, kShards>;
  SweepShardedStack(sim::SimWorld& world, int n, int per_process_per_shard)
      : Base(world, n, Base::make_heads(world, n), per_process_per_shard) {}
};

// Sharded stack over per-shard Figure-3 LL/SC heads (the heads wrap
// external LL/SC objects, so the array is built by hand).
template <class R, int kShards>
struct ShardedLlscStack {
  using Llsc = core::LlscSingleCas<SimP>;
  using Head = LlscHead<Llsc>;
  using Base = ShardedTreiberStack<SimP, Head, R, kShards>;

  ShardedLlscStack(sim::SimWorld& world, int n, int per_process_per_shard)
      : llscs(make_llscs(world, n)),
        stack(world, n, make_heads(), per_process_per_shard) {}

  bool push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> pop(int p) { return stack.pop(p); }
  // Uniform container verbs (structures/concepts.h) so the wrapper feeds
  // harness::ContainerInvoker like the structures it wraps.
  bool try_push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> try_pop(int p) { return stack.pop(p); }
  int last_shard(int p) const { return stack.last_shard(p); }

  std::array<std::unique_ptr<Llsc>, kShards> llscs;
  Base stack;

 private:
  static std::array<std::unique_ptr<Llsc>, kShards> make_llscs(
      sim::SimWorld& world, int n) {
    std::array<std::unique_ptr<Llsc>, kShards> out;
    for (auto& l : out) {
      l = std::make_unique<Llsc>(
          world, n,
          typename Llsc::Options{.value_bits = 32,
                                 .initial_value = kNullIndex,
                                 .initially_linked = false});
    }
    return out;
  }

  std::array<std::unique_ptr<Head>, kShards> make_heads() {
    std::array<std::unique_ptr<Head>, kShards> out;
    for (int s = 0; s < kShards; ++s) {
      out[static_cast<std::size_t>(s)] = std::make_unique<Head>(*llscs[s]);
    }
    return out;
  }
};

using TaggedHead = TaggedCasHead<SimP>;
using RawHead = RawCasHead<SimP>;

// ---------------------------------------------------------- sequential

TEST(ShardedStackSequential, PerShardLifoSingleProcess) {
  sim::SimWorld world(1);
  SweepShardedStack<TaggedHead, reclaim::TaggedReclaimer<SimP>, 2> s(world, 1, 4);
  std::optional<std::uint64_t> r1, r2, r3;
  world.invoke(0, [&] {
    s.push(0, 10);
    s.push(0, 20);
    s.push(0, 30);
    r1 = s.pop(0);
    r2 = s.pop(0);
    r3 = s.pop(0);
  });
  world.run_to_completion(0);
  // pid 0's home shard is 0 and its pool never drains, so everything lands
  // on shard 0 and the composite degenerates to plain LIFO.
  EXPECT_EQ(s.last_shard(0), 0);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(30));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(20));
  EXPECT_EQ(r3, std::optional<std::uint64_t>(10));
}

TEST(ShardedStackSequential, PushFallsThroughOnPoolPressure) {
  sim::SimWorld world(1);
  // One node per process per shard: the second push must fall through to
  // shard 1, the third must report pool exhaustion.
  SweepShardedStack<TaggedHead, reclaim::TaggedReclaimer<SimP>, 2> s(world, 1, 1);
  bool ok1 = false, ok2 = false, ok3 = true;
  std::optional<std::uint64_t> r1, r2, r3;
  world.invoke(0, [&] {
    ok1 = s.push(0, 10);
    const int first = s.last_shard(0);
    ABA_CHECK(first == 0);
    ok2 = s.push(0, 20);
    const int second = s.last_shard(0);
    ABA_CHECK(second == 1);
    ok3 = s.push(0, 30);
    r1 = s.pop(0);  // home shard 0
    r2 = s.pop(0);  // shard 0 empty -> steals 20 from shard 1
    r3 = s.pop(0);
  });
  world.run_to_completion(0);
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
  EXPECT_FALSE(ok3);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(10));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(20));
  EXPECT_EQ(r3, std::nullopt);
}

TEST(ShardedStackSequential, StealRecoversAnotherHomesValues) {
  sim::SimWorld world(2);
  SweepShardedStack<TaggedHead, reclaim::TaggedReclaimer<SimP>, 2> s(world, 2, 4);
  // pid 0 is homed on shard 0, pid 1 on shard 1.
  world.invoke(0, [&] { s.push(0, 77); });
  world.run_to_completion(0);
  std::optional<std::uint64_t> got;
  world.invoke(1, [&] { got = s.pop(1); });
  world.run_to_completion(1);
  EXPECT_EQ(got, std::optional<std::uint64_t>(77));
  EXPECT_EQ(s.last_shard(1), 0) << "pid 1 must have stolen from shard 0";
}

TEST(ShardedQueueSequential, PerShardFifoAndSteal) {
  sim::SimWorld world(2);
  ShardedMsQueue<SimP, reclaim::TaggedReclaimer<SimP>, 2> q(world, 2, 4);
  std::optional<std::uint64_t> r1, r2, r3;
  world.invoke(0, [&] {
    q.enqueue(0, 10);
    q.enqueue(0, 20);
    r1 = q.dequeue(0);
    r2 = q.dequeue(0);
  });
  world.run_to_completion(0);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(10));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(20));
  // A value enqueued on shard 0 is visible to a consumer homed on shard 1.
  world.invoke(0, [&] { q.enqueue(0, 30); });
  world.run_to_completion(0);
  world.invoke(1, [&] { r3 = q.dequeue(1); });
  world.run_to_completion(1);
  EXPECT_EQ(r3, std::optional<std::uint64_t>(30));
  EXPECT_EQ(q.last_shard(1), 0);
}

TEST(ShardedStackSequential, OneShardIsOneGlobalLifo) {
  sim::SimWorld world(2);
  SweepShardedStack<TaggedHead, reclaim::TaggedReclaimer<SimP>, 1> s(world, 2, 4);
  std::optional<std::uint64_t> r0, r1;
  world.invoke(0, [&] { s.push(0, 10); });
  world.run_to_completion(0);
  world.invoke(1, [&] { s.push(1, 20); });
  world.run_to_completion(1);
  // Both processes are homed on the only shard, so the composite keeps the
  // global order: p0 pops p1's later push.
  world.invoke(0, [&] { r0 = s.pop(0); });
  world.run_to_completion(0);
  world.invoke(1, [&] { r1 = s.pop(1); });
  world.run_to_completion(1);
  EXPECT_EQ(r0, std::optional<std::uint64_t>(20));
  EXPECT_EQ(r1, std::optional<std::uint64_t>(10));
  EXPECT_EQ(s.last_shard(0), 0);
  EXPECT_EQ(s.last_shard(1), 0);
}

TEST(ShardedQueueSequential, EnqueueFallsThroughOnPoolPressure) {
  sim::SimWorld world(1);
  // One node per process per shard: the second enqueue must fall through
  // to shard 1, the third must report pool exhaustion, charged home.
  ShardedMsQueue<SimP, reclaim::TaggedReclaimer<SimP>, 2> q(world, 1, 1);
  bool ok1 = false, ok2 = false, ok3 = true;
  int shard1 = -1, shard2 = -1, shard3 = -1;
  std::optional<std::uint64_t> r1, r2, r3;
  world.invoke(0, [&] {
    ok1 = q.enqueue(0, 10);
    shard1 = q.last_shard(0);
    ok2 = q.enqueue(0, 20);
    shard2 = q.last_shard(0);
    ok3 = q.enqueue(0, 30);
    shard3 = q.last_shard(0);
    r1 = q.dequeue(0);  // home shard 0
    r2 = q.dequeue(0);  // shard 0 empty -> steals 20 from shard 1
    r3 = q.dequeue(0);
  });
  world.run_to_completion(0);
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
  EXPECT_FALSE(ok3);
  EXPECT_EQ(shard1, 0);
  EXPECT_EQ(shard2, 1);
  EXPECT_EQ(shard3, 0) << "a failed enqueue is charged to the home shard";
  EXPECT_EQ(r1, std::optional<std::uint64_t>(10));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(20));
  EXPECT_EQ(r3, std::nullopt);
  EXPECT_EQ(q.last_shard(0), 0) << "an empty dequeue is charged home";
}

// ---------------------------------------------- composite introspection

TEST(ShardedIntrospection, PoolSizeAndStatsSumOverShards) {
  sim::SimWorld world(2);
  SweepShardedStack<TaggedHead, reclaim::TaggedReclaimer<SimP>, 4> s(world, 2, 3);
  // 4 shards x 2 processes x 3 nodes.
  EXPECT_EQ(s.pool_size(), 24u);
  EXPECT_EQ(s.reclaim_stats().pool_size, 24u);
  EXPECT_EQ(s.reclaim_stats().free_nodes, 24u);
  world.invoke(0, [&] {
    s.push(0, 1);
    s.push(0, 2);
  });
  world.run_to_completion(0);
  EXPECT_EQ(s.reclaim_stats().free_nodes, 22u);
  EXPECT_EQ(s.shard(0).reclaimer().stats().free_nodes, 4u)
      << "both pushes draw on pid 0's home shard";
  EXPECT_EQ(s.shard(1).reclaimer().stats().free_nodes, 6u);
}

TEST(ShardedIntrospection, UnreclaimedSumsOverShards) {
  sim::SimWorld world(1);
  // Leaky: a popped node never returns, so each shard's one node per
  // process is spent after a single push/pop.
  SweepShardedStack<TaggedHead, reclaim::LeakyReclaimer<SimP>, 2> s(world, 1, 1);
  std::optional<std::uint64_t> r1, r2;
  bool ok3 = true;
  world.invoke(0, [&] {
    ABA_CHECK(s.push(0, 10));  // shard 0
    r1 = s.pop(0);             // retired on shard 0
    ABA_CHECK(s.push(0, 20));  // shard 0 drained: falls through to shard 1
    r2 = s.pop(0);             // stolen from shard 1, retired there
    ok3 = s.push(0, 30);       // both shards drained
  });
  world.run_to_completion(0);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(10));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(20));
  EXPECT_FALSE(ok3);
  EXPECT_EQ(s.last_shard(0), 0) << "a failed push is charged to the home shard";
  EXPECT_EQ(s.shard(0).reclaimer().unreclaimed(0), 1u);
  EXPECT_EQ(s.shard(1).reclaimer().unreclaimed(0), 1u);
  EXPECT_EQ(s.unreclaimed(0), 2u);
  EXPECT_EQ(s.reclaim_stats().retired_unreclaimed, 2u);
  EXPECT_EQ(s.reclaim_stats().free_nodes, 0u);
}

TEST(ShardedIntrospection, DetachReleasesCachedGuardsOnEveryShard) {
  using Stack = SweepShardedStack<TaggedHead,
                                  reclaim::CachedHazardPointerReclaimer<SimP>, 2>;
  sim::SimWorld world(2);
  Stack s(world, 2, 4);
  world.invoke(0, [&] { ABA_CHECK(s.push(0, 10)); });  // shard 0
  world.run_to_completion(0);
  world.invoke(1, [&] { ABA_CHECK(s.push(1, 20)); });  // shard 1
  world.run_to_completion(1);
  std::optional<std::uint64_t> r1, r2;
  world.invoke(0, [&] {
    r1 = s.pop(0);  // home shard 0
    r2 = s.pop(0);  // shard 0 empty -> steals from shard 1
  });
  world.run_to_completion(0);
  ASSERT_EQ(r1, std::optional<std::uint64_t>(10));
  ASSERT_EQ(r2, std::optional<std::uint64_t>(20));
  // Cached guards outlive end_op: p0 still publishes one on each shard it
  // popped from.
  EXPECT_GE(s.shard(0).reclaimer().stats().guard_slots_occupied, 1u);
  EXPECT_GE(s.shard(1).reclaimer().stats().guard_slots_occupied, 1u);
  world.invoke(0, [&] { s.detach(0); });
  world.run_to_completion(0);
  EXPECT_EQ(s.reclaim_stats().guard_slots_occupied, 0u);
}

TEST(ShardedIntrospection, ParkedGuardOnAStolenShardIsTheProcessPhase) {
  using Stack =
      SweepShardedStack<TaggedHead, reclaim::HazardPointerReclaimer<SimP>, 2>;
  sim::SimWorld world(2);
  Stack s(world, 2, 4);
  world.invoke(0, [&] { ABA_CHECK(s.push(0, 42)); });  // shard 0
  world.run_to_completion(0);

  // p1 (homed on shard 1) finds its home empty and steals from shard 0;
  // park it as soon as its guard on shard 0 is published.
  std::optional<std::uint64_t> got;
  world.invoke(1, [&] { got = s.pop(1); });
  while (world.poised(1).has_value() &&
         !reclaim::is_vulnerable(s.shard(0).reclaimer().phase(1))) {
    world.step(1);
  }
  ASSERT_TRUE(world.poised(1).has_value()) << "the steal never guarded";
  EXPECT_EQ(s.shard(0).reclaimer().phase(1),
            reclaim::ReclaimPhase::kGuardPublished);
  EXPECT_FALSE(reclaim::is_vulnerable(s.shard(1).reclaimer().phase(1)));
  EXPECT_EQ(s.reclaim_phase(1), reclaim::ReclaimPhase::kGuardPublished)
      << "the guard pins its node whichever shard it sits on";
  EXPECT_EQ(s.reclaim_phase(0), reclaim::ReclaimPhase::kIdle);

  world.run_to_completion(1);
  EXPECT_EQ(got, std::optional<std::uint64_t>(42));
  EXPECT_EQ(s.reclaim_phase(1), reclaim::ReclaimPhase::kIdle);
}

TEST(ShardedIntrospection, FingerprintCoversTheRoutingTags) {
  using Stack = SweepShardedStack<TaggedHead, reclaim::TaggedReclaimer<SimP>, 2>;
  sim::SimWorld world_a(2), world_b(2);
  Stack a(world_a, 2, 4), b(world_b, 2, 4);
  EXPECT_EQ(a.reclaim_fingerprint(), b.reclaim_fingerprint());
  // An empty pop touches no reclaimer state; it only sets p0's routing tag,
  // which steers p0's next probe order.
  world_a.invoke(0, [&] { ABA_CHECK(!a.pop(0).has_value()); });
  world_a.run_to_completion(0);
  EXPECT_EQ(a.last_shard(0), 0);
  EXPECT_EQ(a.reclaim_stats().free_nodes, b.reclaim_stats().free_nodes);
  EXPECT_NE(a.reclaim_fingerprint(), b.reclaim_fingerprint());
}

// --------------------------------------------- per-shard history checking

// Splits a history by the invoker's shard tags and checks each sub-history
// against Spec; also checks multiset conservation (every popped value was
// pushed at least as many times as it was popped).
template <class Spec>
void expect_sharded_contract(const std::vector<spec::Op>& ops,
                             const std::vector<int>& shard_of, int num_shards,
                             Method take_method) {
  ASSERT_EQ(ops.size(), shard_of.size());
  std::vector<std::vector<spec::Op>> by_shard(
      static_cast<std::size_t>(num_shards));
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_GE(shard_of[i], 0) << "op " << i << " missing its shard tag";
    ASSERT_LT(shard_of[i], num_shards);
    by_shard[static_cast<std::size_t>(shard_of[i])].push_back(ops[i]);
  }
  for (int s = 0; s < num_shards; ++s) {
    const auto& sub = by_shard[static_cast<std::size_t>(s)];
    const auto result = spec::check_linearizable<Spec>(sub, Spec::initial());
    EXPECT_TRUE(result.linearizable)
        << "shard " << s << " sub-history not linearizable\n"
        << spec::explain(sub, result);
  }
  std::map<std::uint64_t, long> balance;  // pushes minus pops, per value
  for (const auto& op : ops) {
    if (op.method != take_method && op.ret == 1) ++balance[op.arg];
  }
  for (const auto& op : ops) {
    if (op.method == take_method && op.ret != 0) {
      const std::uint64_t value = op.ret - 1;  // pack_opt inverse
      auto it = balance.find(value);
      ASSERT_TRUE(it != balance.end() && it->second > 0)
          << "popped value " << value << " never pushed (or popped twice)";
      --it->second;
    }
  }
}

std::vector<WorkloadOp> random_workload(int n, int ops, std::uint64_t seed,
                                        Method put, Method take) {
  util::Xoshiro256 rng(seed);
  std::vector<WorkloadOp> workload;
  for (int pid = 0; pid < n; ++pid) {
    for (int i = 0; i < ops; ++i) {
      if (rng.chance(1, 2)) {
        workload.push_back({pid, put, rng.below(100)});
      } else {
        workload.push_back({pid, take, 0});
      }
    }
  }
  return workload;
}

// --------------------------------------------- deterministic steal races

// p0 is homed on shard 0 and holds its one element; p1 (homed on shard 1)
// scans past its empty home shard and races p0's pop for that element.
// Step budget: shard-1 pop is 1 step (null head read); shard-0 pop is head
// read + next read + CAS. Pausing p1 after 3 steps leaves it poised on the
// CAS with a stale (index, tag) snapshot.
struct StealRace {
  using Stack = SweepShardedStack<TaggedHead, reclaim::TaggedReclaimer<SimP>, 2>;
  using Invoker = harness::ShardedStackInvoker<Stack>;

  sim::SimWorld world{2};
  spec::History history;
  std::unique_ptr<Invoker> invoker;

  StealRace() {
    invoker = std::make_unique<Invoker>(world, history,
                                        std::make_unique<Stack>(world, 2, 2));
  }

  void solo(const WorkloadOp& op) {
    invoker->invoke(op);
    world.run_to_completion(op.pid);
  }
};

TEST(ShardedStealRace, StealerWinsHomePopperScansOn) {
  StealRace t;
  t.solo({0, Method::kPush, 42});  // shard 0 now holds 42.

  // p1 starts pop: scans empty shard 1 (1 step), reads shard 0's head and
  // the node's next (2 more), pauses poised on the CAS.
  t.invoker->invoke({1, Method::kPop, 0});
  for (int i = 0; i < 3; ++i) t.world.step(1);

  // p0 starts its own pop of shard 0 and pauses at the same point (head
  // read + next read; its CAS not yet issued).
  t.invoker->invoke({0, Method::kPop, 0});
  t.world.step(0);
  t.world.step(0);

  // The stealer's CAS fires first and wins the element.
  t.world.run_to_completion(1);
  // The home popper's CAS fails, its retry sees the empty shard 0, and its
  // steal scan finds shard 1 empty too: it must report empty.
  t.world.run_to_completion(0);

  const auto ops = t.history.ops();
  ASSERT_EQ(ops.size(), 3u);
  std::uint64_t p0_ret = 0, p1_ret = 0;
  for (const auto& op : ops) {
    if (op.method != Method::kPop) continue;
    (op.pid == 0 ? p0_ret : p1_ret) = op.ret;
  }
  EXPECT_EQ(p1_ret, spec::pack_opt(true, 42)) << "the stealer must win";
  EXPECT_EQ(p0_ret, spec::pack_opt(false, 0))
      << "the home popper must observe every shard empty";
  expect_sharded_contract<spec::StackSpec>(ops, t.invoker->shard_of(), 2,
                                           Method::kPop);
}

TEST(ShardedStealRace, HomePopperWinsStealerScansOn) {
  StealRace t;
  t.solo({0, Method::kPush, 42});

  // Same pause point for the stealer...
  t.invoker->invoke({1, Method::kPop, 0});
  for (int i = 0; i < 3; ++i) t.world.step(1);

  // ...but this time the home popper runs to completion first.
  t.solo({0, Method::kPop, 0});

  // The stealer's stale CAS fails; its retry observes shard 0 empty and the
  // scan is exhausted: empty.
  t.world.run_to_completion(1);

  const auto ops = t.history.ops();
  std::uint64_t p0_ret = 0, p1_ret = 0;
  for (const auto& op : ops) {
    if (op.method != Method::kPop) continue;
    (op.pid == 0 ? p0_ret : p1_ret) = op.ret;
  }
  EXPECT_EQ(p0_ret, spec::pack_opt(true, 42)) << "the home popper must win";
  EXPECT_EQ(p1_ret, spec::pack_opt(false, 0));
  expect_sharded_contract<spec::StackSpec>(ops, t.invoker->shard_of(), 2,
                                           Method::kPop);
}

// --------------------------------------------- sweeps: shards × head × R

template <class Stack, int kShards>
void sharded_stack_sweep() {
  for (int n : {2, 3}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      sim::SimWorld world(n);
      world.set_trace_enabled(false);
      spec::History history;
      harness::ShardedStackInvoker<Stack> invoker(
          world, history, std::make_unique<Stack>(world, n, 4));
      harness::ScheduleLog log;
      harness::drive_random_schedule(
          world, invoker, n,
          random_workload(n, 6, seed, Method::kPush, Method::kPop),
          seed * 811 + 17, &log);
      SCOPED_TRACE(::testing::Message() << "shards=" << kShards << " n=" << n
                                        << " seed=" << seed << "\n"
                                        << log.to_string());
      expect_sharded_contract<spec::StackSpec>(history.ops(),
                                               invoker.shard_of(), kShards,
                                               Method::kPop);
    }
  }
}

template <template <class, class, int> class StackT, class Head, class R>
void sharded_stack_sweep_over_shards() {
  sharded_stack_sweep<StackT<Head, R, 1>, 1>();
  sharded_stack_sweep<StackT<Head, R, 2>, 2>();
  sharded_stack_sweep<StackT<Head, R, 4>, 4>();
}

TEST(ShardedSweep, TaggedHeadTaggedReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, TaggedHead,
                                  reclaim::TaggedReclaimer<SimP>>();
}
TEST(ShardedSweep, TaggedHeadLeakyReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, TaggedHead,
                                  reclaim::LeakyReclaimer<SimP>>();
}
TEST(ShardedSweep, TaggedHeadHazardReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, TaggedHead,
                                  reclaim::HazardPointerReclaimer<SimP>>();
}
TEST(ShardedSweep, TaggedHeadEpochReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, TaggedHead,
                                  reclaim::EpochBasedReclaimer<SimP>>();
}
// Cached guards stay published between operations, so a process's guard on
// one shard outlives its moves to the others.
TEST(ShardedSweep, TaggedHeadCachedHazardReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, TaggedHead,
                                  reclaim::CachedHazardPointerReclaimer<SimP>>();
}
// Deferred reuse keeps even a raw CAS head safe, per shard exactly as
// unsharded (the reclaimer axis carries over with no cross-shard work).
TEST(ShardedSweep, RawHeadHazardReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, RawHead,
                                  reclaim::HazardPointerReclaimer<SimP>>();
}

TEST(ShardedSweep, RawHeadCachedHazardReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, RawHead,
                                  reclaim::CachedHazardPointerReclaimer<SimP>>();
}
// Deferred epochs: the announcement cached across operations covers every
// shard's grace period at once.
TEST(ShardedSweep, TaggedHeadDeferredEpochReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, TaggedHead,
                                  reclaim::DeferredEpochReclaimer<SimP>>();
}
TEST(ShardedSweep, RawHeadDeferredEpochReclaimer) {
  sharded_stack_sweep_over_shards<SweepShardedStack, RawHead,
                                  reclaim::DeferredEpochReclaimer<SimP>>();
}

// LL/SC heads: one Figure-3 object per shard.
template <class R, int kShards>
struct LlscSweepAdapter : ShardedLlscStack<R, kShards> {
  using ShardedLlscStack<R, kShards>::ShardedLlscStack;
};
template <class Head /*ignored*/, class R, int kShards>
using LlscSweep = LlscSweepAdapter<R, kShards>;

TEST(ShardedSweep, LlscHeadTaggedReclaimer) {
  sharded_stack_sweep_over_shards<LlscSweep, TaggedHead,
                                  reclaim::TaggedReclaimer<SimP>>();
}

template <class R, int kShards>
void sharded_queue_sweep() {
  using Queue = ShardedMsQueue<SimP, R, kShards>;
  for (int n : {2, 3}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      sim::SimWorld world(n);
      world.set_trace_enabled(false);
      spec::History history;
      harness::ShardedQueueInvoker<Queue> invoker(
          world, history, std::make_unique<Queue>(world, n, 4));
      harness::ScheduleLog log;
      harness::drive_random_schedule(
          world, invoker, n,
          random_workload(n, 6, seed, Method::kEnq, Method::kDeq),
          seed * 823 + 19, &log);
      SCOPED_TRACE(::testing::Message() << "shards=" << kShards << " n=" << n
                                        << " seed=" << seed << "\n"
                                        << log.to_string());
      expect_sharded_contract<spec::QueueSpec>(history.ops(),
                                               invoker.shard_of(), kShards,
                                               Method::kDeq);
    }
  }
}

TEST(ShardedSweep, QueueTaggedReclaimer) {
  sharded_queue_sweep<reclaim::TaggedReclaimer<SimP>, 1>();
  sharded_queue_sweep<reclaim::TaggedReclaimer<SimP>, 2>();
  sharded_queue_sweep<reclaim::TaggedReclaimer<SimP>, 4>();
}
// Leaky pools drain, so late enqueues fall through and then fail: a
// refused enqueue is charged home and must still linearize there.
TEST(ShardedSweep, QueueLeakyReclaimer) {
  sharded_queue_sweep<reclaim::LeakyReclaimer<SimP>, 1>();
  sharded_queue_sweep<reclaim::LeakyReclaimer<SimP>, 2>();
  sharded_queue_sweep<reclaim::LeakyReclaimer<SimP>, 4>();
}
TEST(ShardedSweep, QueueHazardReclaimer) {
  sharded_queue_sweep<reclaim::HazardPointerReclaimer<SimP>, 1>();
  sharded_queue_sweep<reclaim::HazardPointerReclaimer<SimP>, 2>();
  sharded_queue_sweep<reclaim::HazardPointerReclaimer<SimP>, 4>();
}
TEST(ShardedSweep, QueueCachedHazardReclaimer) {
  sharded_queue_sweep<reclaim::CachedHazardPointerReclaimer<SimP>, 1>();
  sharded_queue_sweep<reclaim::CachedHazardPointerReclaimer<SimP>, 2>();
  sharded_queue_sweep<reclaim::CachedHazardPointerReclaimer<SimP>, 4>();
}
TEST(ShardedSweep, QueueEpochReclaimer) {
  sharded_queue_sweep<reclaim::EpochBasedReclaimer<SimP>, 2>();
}
// Four shards under deferred epochs: the shape of the queue_sharded
// benchmark workload.
TEST(ShardedSweep, QueueDeferredEpochReclaimer) {
  sharded_queue_sweep<reclaim::DeferredEpochReclaimer<SimP>, 4>();
}

// ------------------------------------------- Fast ≡ Counted determinism

// Token-serialized native workload (one thread moves at a time, so the
// schedule is a pure function of (n, rounds)): the platform policy changes
// layout, instrumentation and backoff — never results.
template <class P>
std::vector<std::uint64_t> tokenized_sharded_trace(int n, int rounds) {
  using Stack =
      ShardedTreiberStack<P, TaggedCasHead<P>, reclaim::TaggedReclaimer<P>, 2>;
  using Queue = ShardedMsQueue<P, reclaim::TaggedReclaimer<P>, 2>;
  typename P::Env env;
  Stack stack(env, n, Stack::make_heads(env, n), 8);
  Queue queue(env, n, 8);
  std::vector<std::uint64_t> trace(static_cast<std::size_t>(n) * rounds, 0);
  std::atomic<int> turn{0};
  std::vector<std::thread> threads;
  for (int pid = 0; pid < n; ++pid) {
    threads.emplace_back([&, pid] {
      for (int r = 0; r < rounds; ++r) {
        const int my_step = r * n + pid;
        while (turn.load() != my_step) std::this_thread::yield();
        std::uint64_t result = 0;
        switch ((pid + r) % 4) {
          case 0:
            result = stack.push(pid, static_cast<std::uint64_t>(my_step)) ? 1 : 0;
            break;
          case 1: {
            const auto v = stack.pop(pid);
            result = spec::pack_opt(v.has_value(), v.has_value() ? *v : 0);
            break;
          }
          case 2:
            result = queue.enqueue(pid, static_cast<std::uint64_t>(my_step)) ? 1 : 0;
            break;
          default: {
            const auto v = queue.dequeue(pid);
            result = spec::pack_opt(v.has_value(), v.has_value() ? *v : 0);
            break;
          }
        }
        trace[static_cast<std::size_t>(my_step)] = result;
        turn.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  return trace;
}

TEST(ShardedNativePolicy, FastMatchesCountedOnShardedWorkload) {
  using CountedP = native::NativePlatform<native::Counted>;
  using FastP = native::NativePlatform<native::Fast>;
  const auto counted = tokenized_sharded_trace<CountedP>(3, 48);
  const auto fast = tokenized_sharded_trace<FastP>(3, 48);
  EXPECT_EQ(counted, fast);
}

// ----------------------------------------------------- native stress

TEST(ShardedNativeStress, StackBalancedAccounting) {
  using Stack = ShardedTreiberStack<NativeP, TaggedCasHead<NativeP>,
                                    reclaim::TaggedReclaimer<NativeP>, 4>;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1500;
  typename NativeP::Env env;
  Stack stack(env, kThreads, Stack::make_heads(env, kThreads), 256);

  std::atomic<std::uint64_t> pushed_sum{0}, popped_sum{0};
  std::atomic<std::uint64_t> pushed_count{0}, popped_count{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(tid) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.chance(1, 2)) {
          const std::uint64_t v = rng.below(1000) + 1;
          if (stack.push(tid, v)) {
            pushed_sum.fetch_add(v);
            pushed_count.fetch_add(1);
          }
        } else {
          const auto v = stack.pop(tid);
          if (v.has_value()) {
            popped_sum.fetch_add(*v);
            popped_count.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Quiescent drain: with no concurrency, an empty result means every
  // shard really is empty. Every pushed value must be popped exactly once.
  for (;;) {
    const auto v = stack.pop(0);
    if (!v.has_value()) break;
    popped_sum.fetch_add(*v);
    popped_count.fetch_add(1);
  }
  EXPECT_EQ(pushed_sum.load(), popped_sum.load());
  EXPECT_EQ(pushed_count.load(), popped_count.load());
}

TEST(ShardedNativeStress, StackHazardReclaimerBalancedAccounting) {
  // Raw CAS heads under deferred reclamation, sharded: the guard publish /
  // revalidate handshake runs per shard (what the TSan job watches).
  using Stack = ShardedTreiberStack<NativeP, RawCasHead<NativeP>,
                                    reclaim::HazardPointerReclaimer<NativeP>, 2>;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1000;
  typename NativeP::Env env;
  Stack stack(env, kThreads, Stack::make_heads(env, kThreads), 256);

  std::atomic<std::uint64_t> pushed_sum{0}, popped_sum{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(tid) + 7);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.chance(1, 2)) {
          const std::uint64_t v = rng.below(1000) + 1;
          if (stack.push(tid, v)) pushed_sum.fetch_add(v);
        } else {
          const auto v = stack.pop(tid);
          if (v.has_value()) popped_sum.fetch_add(*v);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (;;) {
    const auto v = stack.pop(0);
    if (!v.has_value()) break;
    popped_sum.fetch_add(*v);
  }
  EXPECT_EQ(pushed_sum.load(), popped_sum.load());
}

// Each thread detaches when it leaves: a no-op for guard-free reclaimers,
// and for cached guards the release of what stays published between
// operations on every shard the thread touched.
template <class R>
void sharded_queue_balanced_accounting() {
  using Queue = ShardedMsQueue<NativeP, R, 4>;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1000;
  typename NativeP::Env env;
  Queue queue(env, kThreads, 256);

  std::atomic<std::uint64_t> enq_sum{0}, deq_sum{0};
  std::atomic<std::uint64_t> enq_count{0}, deq_count{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(tid) + 11);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.chance(1, 2)) {
          const std::uint64_t v = rng.below(1000) + 1;
          if (queue.enqueue(tid, v)) {
            enq_sum.fetch_add(v);
            enq_count.fetch_add(1);
          }
        } else {
          const auto v = queue.dequeue(tid);
          if (v.has_value()) {
            deq_sum.fetch_add(*v);
            deq_count.fetch_add(1);
          }
        }
      }
      queue.detach(tid);
    });
  }
  for (auto& t : threads) t.join();

  for (;;) {
    const auto v = queue.dequeue(0);
    if (!v.has_value()) break;
    deq_sum.fetch_add(*v);
    deq_count.fetch_add(1);
  }
  EXPECT_EQ(enq_sum.load(), deq_sum.load());
  EXPECT_EQ(enq_count.load(), deq_count.load());
}

TEST(ShardedNativeStress, QueueBalancedAccounting) {
  sharded_queue_balanced_accounting<reclaim::TaggedReclaimer<NativeP>>();
}
TEST(ShardedNativeStress, QueueCachedHazardDetachBalancedAccounting) {
  sharded_queue_balanced_accounting<
      reclaim::CachedHazardPointerReclaimer<NativeP>>();
}
// The queue_sharded benchmark's shape: four shards under deferred epochs.
TEST(ShardedNativeStress, QueueDeferredEpochDetachBalancedAccounting) {
  sharded_queue_balanced_accounting<reclaim::DeferredEpochReclaimer<NativeP>>();
}

}  // namespace
}  // namespace aba::structures
