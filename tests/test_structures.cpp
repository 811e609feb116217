// Tests for the application structures: the Treiber stack with its three
// head-protection policies (raw CAS / bounded tag / LL/SC) and the Michael-
// Scott queue, all under the default immediate-reuse (tagged) reclaimer.
// The reclamation axis — hazard/epoch/leaky policies and their sweeps — is
// covered by tests/test_reclaim.cpp.
//
// The CAS-failure telemetry hook (structures/contention.h) is pinned by
// forced-collision schedules: the probe counts exactly the failed CASes,
// stops when detached, and (one probe per shard) charges only the shard
// whose head was contended.
//
// The centerpiece is the deterministic ABA reproduction: one fixed schedule
// corrupts the raw-CAS stack, while the *same* schedule leaves the tagged
// and LL/SC stacks correct — the paper's motivation made into a regression
// test.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <thread>

#include "core/llsc_single_cas.h"
#include "core/llsc_unbounded_tag.h"
#include "harness/adapters.h"
#include "harness/harness.h"
#include "sim/sim_platform.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "structures/contention.h"
#include "structures/ms_queue.h"
#include "structures/sharded.h"
#include "structures/treiber_stack.h"
#include "util/rng.h"

namespace aba::structures {
namespace {

using SimP = sim::SimPlatform;
using harness::WorkloadOp;
using spec::Method;

// ------------------------------------------------------------ fixtures

// Stack with raw CAS head.
struct RawStack {
  RawStack(sim::SimWorld& world, int n, int per_process)
      : stack(world, n, std::make_unique<RawCasHead<SimP>>(world, n),
              TreiberStack<SimP, RawCasHead<SimP>>::partition(n, per_process)) {}
  bool push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> pop(int p) { return stack.pop(p); }
  // Uniform container verbs (structures/concepts.h) so the wrapper feeds
  // harness::ContainerInvoker like the structures it wraps.
  bool try_push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> try_pop(int p) { return stack.pop(p); }
  TreiberStack<SimP, RawCasHead<SimP>> stack;
};

// Stack with (index, tag) CAS head.
struct TaggedStack {
  TaggedStack(sim::SimWorld& world, int n, int per_process, unsigned tag_bits = 16)
      : stack(world, n, std::make_unique<TaggedCasHead<SimP>>(world, n, 16, tag_bits),
              TreiberStack<SimP, TaggedCasHead<SimP>>::partition(n, per_process)) {
  }
  bool push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> pop(int p) { return stack.pop(p); }
  bool try_push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> try_pop(int p) { return stack.pop(p); }
  TreiberStack<SimP, TaggedCasHead<SimP>> stack;
};

// Stack whose head is the paper's Figure 3 LL/SC object.
struct LlscStack {
  using Llsc = core::LlscSingleCas<SimP>;
  LlscStack(sim::SimWorld& world, int n, int per_process)
      : llsc(world, n,
             Llsc::Options{.value_bits = 32,
                           .initial_value = kNullIndex,
                           .initially_linked = false}),
        stack(world, n, std::make_unique<LlscHead<Llsc>>(llsc),
              TreiberStack<SimP, LlscHead<Llsc>>::partition(n, per_process)) {}
  bool push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> pop(int p) { return stack.pop(p); }
  bool try_push(int p, std::uint64_t v) { return stack.push(p, v); }
  std::optional<std::uint64_t> try_pop(int p) { return stack.pop(p); }
  Llsc llsc;
  TreiberStack<SimP, LlscHead<Llsc>> stack;
};

struct SimQueue {
  SimQueue(sim::SimWorld& world, int n, int per_process, unsigned tag_bits = 16)
      : queue(world, n, per_process,
              MsQueue<SimP>::Options{.index_bits = 16, .tag_bits = tag_bits}) {}
  bool enqueue(int p, std::uint64_t v) { return queue.enqueue(p, v); }
  std::optional<std::uint64_t> dequeue(int p) { return queue.dequeue(p); }
  bool try_push(int p, std::uint64_t v) { return queue.enqueue(p, v); }
  std::optional<std::uint64_t> try_pop(int p) { return queue.dequeue(p); }
  MsQueue<SimP> queue;
};

template <class Impl, class... Args>
harness::FixtureFactory stack_factory(int n, Args... args) {
  return harness::make_factory<harness::StackInvoker, Impl>(n, args...);
}

// ------------------------------------------------------- sequential

TEST(TreiberStackSequential, PushPopLifo) {
  sim::SimWorld world(1);
  RawStack s(world, 1, 4);
  std::optional<std::uint64_t> r1, r2, r3;
  world.invoke(0, [&] {
    s.push(0, 10);
    s.push(0, 20);
    r1 = s.pop(0);
    r2 = s.pop(0);
    r3 = s.pop(0);
  });
  world.run_to_completion(0);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(20));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(10));
  EXPECT_EQ(r3, std::nullopt);
}

TEST(TreiberStackSequential, PoolExhaustionRefusesPush) {
  sim::SimWorld world(1);
  RawStack s(world, 1, 2);
  bool ok1 = false, ok2 = false, ok3 = true;
  world.invoke(0, [&] {
    ok1 = s.push(0, 1);
    ok2 = s.push(0, 2);
    ok3 = s.push(0, 3);
  });
  world.run_to_completion(0);
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
  EXPECT_FALSE(ok3);
}

TEST(TreiberStackSequential, NodesAreReusedAfterPop) {
  sim::SimWorld world(1);
  RawStack s(world, 1, 1);  // Single node: every push must reuse it.
  world.invoke(0, [&] {
    for (int i = 0; i < 10; ++i) {
      ABA_ASSERT(s.push(0, static_cast<std::uint64_t>(i)));
      ABA_ASSERT(s.pop(0) == std::optional<std::uint64_t>(i));
    }
  });
  world.run_to_completion(0);
}

TEST(MsQueueSequential, EnqueueDequeueFifo) {
  sim::SimWorld world(1);
  SimQueue q(world, 1, 4);
  std::optional<std::uint64_t> r1, r2, r3;
  world.invoke(0, [&] {
    q.enqueue(0, 10);
    q.enqueue(0, 20);
    r1 = q.dequeue(0);
    r2 = q.dequeue(0);
    r3 = q.dequeue(0);
  });
  world.run_to_completion(0);
  EXPECT_EQ(r1, std::optional<std::uint64_t>(10));
  EXPECT_EQ(r2, std::optional<std::uint64_t>(20));
  EXPECT_EQ(r3, std::nullopt);
}

TEST(MsQueueSequential, LongRunReusesNodes) {
  sim::SimWorld world(1);
  SimQueue q(world, 1, 3);
  world.invoke(0, [&] {
    for (std::uint64_t i = 0; i < 50; ++i) {
      ABA_ASSERT(q.enqueue(0, i));
      ABA_ASSERT(q.dequeue(0) == std::optional<std::uint64_t>(i));
    }
  });
  world.run_to_completion(0);
}

// ------------------------------------------------ CAS-failure telemetry

// Failed CAS steps in the world's trace, on any object.
std::uint64_t failed_cas_steps(const sim::SimWorld& world) {
  std::uint64_t failed = 0;
  for (const auto& step : world.trace_copy()) {
    if (step.kind == sim::OpKind::kCas && !step.cas_success) ++failed;
  }
  return failed;
}

// Forces one CAS failure: `loser` runs `op1` until it is poised on its
// first CAS, `winner` runs `op0` to completion (moving the word the loser
// read), then the loser resumes — its CAS fails, and its retry succeeds.
template <class Op0, class Op1>
void collide_on_cas(sim::SimWorld& world, Op0 op0, Op1 op1, int winner = 0,
                    int loser = 1) {
  world.invoke(loser, op1);
  while (world.poised(loser).has_value() &&
         world.poised(loser)->kind != sim::OpKind::kCas) {
    world.step(loser);
  }
  ASSERT_TRUE(world.poised(loser).has_value()) << "op1 completed without a CAS";
  world.invoke(winner, op0);
  world.run_to_completion(winner);
  world.run_to_completion(loser);
}

TEST(ContentionProbe, CountsExactlyTheFailedCasesOnATreiberStack) {
  sim::SimWorld world(2);
  TaggedStack s(world, 2, 4);
  ContentionProbe probe;
  s.stack.set_contention_probe(&probe);
  world.invoke(0, [&] { ABA_CHECK(s.push(0, 1)); });
  world.run_to_completion(0);
  EXPECT_EQ(probe.failures(), 0u) << "a solo push never touches the probe";

  collide_on_cas(
      world, [&] { ABA_CHECK(s.push(0, 2)); }, [&] { ABA_CHECK(s.push(1, 3)); });
  EXPECT_EQ(probe.failures(), 1u);
  std::optional<std::uint64_t> r0, r1;
  collide_on_cas(world, [&] { r0 = s.pop(0); }, [&] { r1 = s.pop(1); });
  EXPECT_EQ(probe.failures(), 2u);
  EXPECT_EQ(probe.failures(), failed_cas_steps(world));
  EXPECT_EQ(r0, std::optional<std::uint64_t>(3));
  EXPECT_EQ(r1, std::optional<std::uint64_t>(2));
}

TEST(ContentionProbe, CountsExactlyTheFailedCasesOnAnMsQueue) {
  sim::SimWorld world(2);
  SimQueue q(world, 2, 4);
  ContentionProbe probe;
  q.queue.set_contention_probe(&probe);
  world.invoke(0, [&] { ABA_CHECK(q.enqueue(0, 1)); });
  world.run_to_completion(0);
  EXPECT_EQ(probe.failures(), 0u) << "a solo enqueue never touches the probe";

  // p1 is poised on its link CAS when p0 links first.
  collide_on_cas(
      world, [&] { ABA_CHECK(q.enqueue(0, 2)); },
      [&] { ABA_CHECK(q.enqueue(1, 3)); });
  EXPECT_EQ(probe.failures(), 1u);
  // p1 is poised on its head CAS when p0 dequeues first.
  std::optional<std::uint64_t> r0, r1;
  collide_on_cas(world, [&] { r0 = q.dequeue(0); }, [&] { r1 = q.dequeue(1); });
  EXPECT_EQ(probe.failures(), 2u);
  EXPECT_EQ(probe.failures(), failed_cas_steps(world));
  EXPECT_EQ(r0, std::optional<std::uint64_t>(1));
  EXPECT_EQ(r1, std::optional<std::uint64_t>(2));
}

TEST(ContentionProbe, DetachedProbeStopsCounting) {
  sim::SimWorld world(2);
  TaggedStack s(world, 2, 4);
  ContentionProbe probe;
  s.stack.set_contention_probe(&probe);
  collide_on_cas(
      world, [&] { ABA_CHECK(s.push(0, 1)); }, [&] { ABA_CHECK(s.push(1, 2)); });
  EXPECT_EQ(probe.failures(), 1u);
  s.stack.set_contention_probe(nullptr);
  collide_on_cas(
      world, [&] { ABA_CHECK(s.push(0, 3)); }, [&] { ABA_CHECK(s.push(1, 4)); });
  EXPECT_EQ(failed_cas_steps(world), 2u);
  EXPECT_EQ(probe.failures(), 1u) << "a detached probe must not count";
}

// One probe per shard, the way benches read the router's hottest head: a
// collision on one shard is charged to that shard's probe alone.
TEST(ContentionProbe, PerShardProbesChargeOnlyTheCollidingShard) {
  using Stack = ShardedTreiberStack<SimP, TaggedCasHead<SimP>,
                                    reclaim::TaggedReclaimer<SimP>, 2>;
  sim::SimWorld world(3);
  Stack s(world, 3, Stack::make_heads(world, 3), 4);
  std::array<ContentionProbe, 2> probes;
  for (int shard = 0; shard < 2; ++shard) {
    s.shard(shard).set_contention_probe(&probes[static_cast<std::size_t>(shard)]);
  }
  // pids 0 and 2 share home shard 0; pid 1 is alone on shard 1.
  collide_on_cas(
      world, [&] { ABA_CHECK(s.push(0, 1)); }, [&] { ABA_CHECK(s.push(2, 2)); },
      /*winner=*/0, /*loser=*/2);
  world.invoke(1, [&] { ABA_CHECK(s.push(1, 3)); });
  world.run_to_completion(1);
  EXPECT_EQ(probes[0].failures(), 1u);
  EXPECT_EQ(probes[1].failures(), 0u);
  EXPECT_EQ(probes[0].failures() + probes[1].failures(),
            failed_cas_steps(world));
}

// --------------------------------------------- the deterministic ABA

// Drives the classic Treiber ABA schedule against a stack fixture and
// returns the recorded history:
//   p0: push(10) push(20);  p1 starts pop, pauses after reading head and
//   head->next;  p0: pop pop push(30) (reusing the node p1 holds);  p1
//   resumes. With a raw CAS head p1's CAS wrongly succeeds.
template <class Fixture>
std::vector<spec::Op> run_treiber_aba_schedule() {
  sim::SimWorld world(2);
  spec::History history;
  auto invoker = std::make_unique<harness::StackInvoker<Fixture>>(
      world, history, std::make_unique<Fixture>(world, 2, 2));

  auto solo = [&](const WorkloadOp& op) {
    invoker->invoke(op);
    world.run_to_completion(op.pid);
  };

  solo({0, Method::kPush, 10});  // node0
  solo({0, Method::kPush, 20});  // node1; stack: 20 -> 10.

  // p1 starts pop: execute its head-load and next-read, then pause.
  invoker->invoke({1, Method::kPop, 0});
  world.step(1);  // load head (node1).
  world.step(1);  // read node1.next (node0).

  // p0 pops both nodes and pushes 30, reusing node1 (FIFO free list:
  // after pop(20)=node1, pop(10)=node0 the free list is [node1, node0]).
  solo({0, Method::kPop, 0});   // 20.
  solo({0, Method::kPop, 0});   // 10.
  solo({0, Method::kPush, 30}); // Reuses node1: head is node1 again.

  // p1 resumes: its CAS(head: node1 -> node0) is the ABA moment.
  world.run_to_completion(1);

  // Drain: two more pops by p0 observe the aftermath.
  solo({0, Method::kPop, 0});
  solo({0, Method::kPop, 0});

  return history.ops();
}

TEST(TreiberAba, RawCasHeadIsCorrupted) {
  const auto ops = run_treiber_aba_schedule<RawStack>();
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_FALSE(result.linearizable)
      << "the raw-CAS stack must corrupt under the ABA schedule\n"
      << spec::explain(ops, result);
}

TEST(TreiberAba, TaggedHeadSurvivesSameSchedule) {
  const auto ops = run_treiber_aba_schedule<TaggedStack>();
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

TEST(TreiberAba, LlscHeadSurvivesSameSchedule) {
  const auto ops = run_treiber_aba_schedule<LlscStack>();
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

TEST(TreiberAba, OneBitTagWrapsUnderDeepenedSchedule) {
  // A 1-bit tag survives the single ABA cycle above, but four head updates
  // (pop x3 + push, reusing the node p1 pinned) wrap the tag back to the
  // value p1 observed while leaving p1's recorded next pointer stale: the
  // CAS wrongly succeeds and the stack resurrects already-popped values.
  sim::SimWorld world(2);
  spec::History history;
  auto invoker = std::make_unique<harness::StackInvoker<TaggedStack>>(
      world, history,
      std::make_unique<TaggedStack>(world, 2, 3, /*tag_bits=*/1));

  auto solo = [&](const WorkloadOp& op) {
    invoker->invoke(op);
    world.run_to_completion(op.pid);
  };
  // p0's free list is exactly {node0, node1, node2}.
  solo({0, Method::kPush, 10});  // node0
  solo({0, Method::kPush, 20});  // node1
  solo({0, Method::kPush, 30});  // node2; stack: 30 -> 20 -> 10.

  // p1 starts pop: reads head = (node2, tag t) and node2.next = node1.
  invoker->invoke({1, Method::kPop, 0});
  world.step(1);
  world.step(1);

  // Four head updates: tag goes t+4 = t (mod 2); free list cycles to
  // [node2, node1, node0] so push(40) reuses node2 with next = null.
  solo({0, Method::kPop, 0});   // 30
  solo({0, Method::kPop, 0});   // 20
  solo({0, Method::kPop, 0});   // 10
  solo({0, Method::kPush, 40}); // node2 again; stack: just 40.

  // p1's CAS sees (node2, t) and succeeds, swinging head to freed node1.
  world.run_to_completion(1);
  solo({0, Method::kPop, 0});
  solo({0, Method::kPop, 0});

  const auto ops = history.ops();
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_FALSE(result.linearizable)
      << "a 1-bit tag must wrap around and corrupt";

  // The same deepened schedule with 16 tag bits stays correct.
}

TEST(TreiberAba, WideTagSurvivesDeepenedSchedule) {
  sim::SimWorld world(2);
  spec::History history;
  auto invoker = std::make_unique<harness::StackInvoker<TaggedStack>>(
      world, history,
      std::make_unique<TaggedStack>(world, 2, 3, /*tag_bits=*/16));
  auto solo = [&](const WorkloadOp& op) {
    invoker->invoke(op);
    world.run_to_completion(op.pid);
  };
  solo({0, Method::kPush, 10});
  solo({0, Method::kPush, 20});
  solo({0, Method::kPush, 30});
  invoker->invoke({1, Method::kPop, 0});
  world.step(1);
  world.step(1);
  solo({0, Method::kPop, 0});
  solo({0, Method::kPop, 0});
  solo({0, Method::kPop, 0});
  solo({0, Method::kPush, 40});
  world.run_to_completion(1);
  solo({0, Method::kPop, 0});
  solo({0, Method::kPop, 0});

  const auto ops = history.ops();
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

// --------------------------------------------------- property: random

struct StackRandomCase {
  int n;
  int ops_per_process;
  std::uint64_t seed;
};

std::vector<StackRandomCase> stack_cases() {
  std::vector<StackRandomCase> cases;
  for (int n : {2, 3}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) cases.push_back({n, 6, seed});
  }
  return cases;
}

std::vector<WorkloadOp> random_stack_workload(int n, int ops, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<WorkloadOp> workload;
  for (int pid = 0; pid < n; ++pid) {
    for (int i = 0; i < ops; ++i) {
      if (rng.chance(1, 2)) {
        workload.push_back({pid, Method::kPush, rng.below(100)});
      } else {
        workload.push_back({pid, Method::kPop, 0});
      }
    }
  }
  return workload;
}

class TaggedStackRandom : public ::testing::TestWithParam<StackRandomCase> {};

TEST_P(TaggedStackRandom, Linearizable) {
  const auto param = GetParam();
  const auto ops = harness::run_random_schedule(
      param.n, stack_factory<TaggedStack>(param.n, 4),
      random_stack_workload(param.n, param.ops_per_process, param.seed),
      param.seed * 613 + 7);
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TaggedStackRandom,
                         ::testing::ValuesIn(stack_cases()));

class LlscStackRandom : public ::testing::TestWithParam<StackRandomCase> {};

TEST_P(LlscStackRandom, Linearizable) {
  const auto param = GetParam();
  const auto ops = harness::run_random_schedule(
      param.n, stack_factory<LlscStack>(param.n, 4),
      random_stack_workload(param.n, param.ops_per_process, param.seed),
      param.seed * 617 + 9);
  const auto result =
      spec::check_linearizable<spec::StackSpec>(ops, spec::StackSpec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LlscStackRandom,
                         ::testing::ValuesIn(stack_cases()));

class MsQueueRandom : public ::testing::TestWithParam<StackRandomCase> {};

TEST_P(MsQueueRandom, Linearizable) {
  const auto param = GetParam();
  util::Xoshiro256 rng(param.seed);
  std::vector<WorkloadOp> workload;
  for (int pid = 0; pid < param.n; ++pid) {
    for (int i = 0; i < param.ops_per_process; ++i) {
      if (rng.chance(1, 2)) {
        workload.push_back({pid, Method::kEnq, rng.below(100)});
      } else {
        workload.push_back({pid, Method::kDeq, 0});
      }
    }
  }
  auto factory = [&](sim::SimWorld& world,
                     spec::History& history) -> std::unique_ptr<harness::Invoker> {
    return std::make_unique<harness::QueueInvoker<SimQueue>>(
        world, history, std::make_unique<SimQueue>(world, param.n, 6));
  };
  const auto ops =
      harness::run_random_schedule(param.n, factory, workload, param.seed * 619);
  const auto result =
      spec::check_linearizable<spec::QueueSpec>(ops, spec::QueueSpec::initial());
  EXPECT_TRUE(result.linearizable) << spec::explain(ops, result);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MsQueueRandom, ::testing::ValuesIn(stack_cases()));

}  // namespace
}  // namespace aba::structures
