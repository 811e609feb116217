// Native-platform tests: the same algorithms running on std::atomic with
// real threads.
//
// Two styles:
//   - burst linearizability: short bursts of operations across threads,
//     timestamped with a shared atomic clock, checked against the
//     sequential specs (one fresh object per burst);
//   - invariant stress: longer runs checking sound one-sided invariants
//     (e.g. a DWrite contained strictly between two DReads MUST be
//     flagged; an SC succeeding implies no SC succeeded since the LL).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>

#include "core/aba_register_bounded.h"
#include "core/aba_register_from_llsc.h"
#include "core/aba_register_unbounded_tag.h"
#include "core/llsc_register_array.h"
#include "core/llsc_single_cas.h"
#include "core/llsc_unbounded_tag.h"
#include "native/native_platform.h"
#include "spec/lin_checker.h"
#include "spec/specs.h"
#include "util/cacheline.h"
#include "util/rng.h"

namespace aba::testing {
namespace {

using NativeP = native::NativePlatform<>;

native::NativePlatform<>::Env g_env;

// ------------------------------------------------------------ burst checks

// Runs `bursts` independent bursts: each burst builds a fresh object via
// `make`, spawns n threads that each run `ops_per_thread` ops produced by
// `op_runner(pid, i, clock, history_collector)`, then checks the burst's
// history with `check`.
template <class MakeFn, class RunFn, class CheckFn>
void run_bursts(int n, int bursts, int ops_per_thread, MakeFn make, RunFn run_op,
                CheckFn check) {
  for (int burst = 0; burst < bursts; ++burst) {
    auto obj = make(burst);
    std::atomic<std::uint64_t> clock{0};
    spec::History history;
    std::barrier sync(n);
    std::vector<std::thread> threads;
    for (int pid = 0; pid < n; ++pid) {
      threads.emplace_back([&, pid] {
        util::Xoshiro256 rng(static_cast<std::uint64_t>(burst) * 1000 + pid);
        sync.arrive_and_wait();
        for (int i = 0; i < ops_per_thread; ++i) {
          run_op(*obj, pid, rng, clock, history);
        }
      });
    }
    for (auto& t : threads) t.join();
    check(history.ops(), burst);
  }
}

TEST(NativeFig4, BurstHistoriesLinearizable) {
  using Fig4 = core::AbaRegisterBounded<NativeP>;
  const int n = 3;
  run_bursts(
      n, /*bursts=*/40, /*ops_per_thread=*/4,
      [&](int) { return std::make_unique<Fig4>(g_env, n, Fig4::Options{.value_bits = 4}); },
      [](Fig4& reg, int pid, util::Xoshiro256& rng,
         std::atomic<std::uint64_t>& clock, spec::History& history) {
        if (rng.chance(2, 5)) {
          const std::uint64_t v = rng.below(16);
          const auto idx =
              history.begin_op(pid, spec::Method::kDWrite, v, clock.fetch_add(1));
          reg.dwrite(pid, v);
          history.complete(idx, 0, clock.fetch_add(1));
        } else {
          const auto idx =
              history.begin_op(pid, spec::Method::kDRead, 0, clock.fetch_add(1));
          const auto [value, flag] = reg.dread(pid);
          history.complete(idx, spec::pack_dread_result(value, flag),
                           clock.fetch_add(1));
        }
      },
      [&](const std::vector<spec::Op>& ops, int burst) {
        const auto result = spec::check_linearizable<spec::AbaRegisterSpec>(
            ops, spec::AbaRegisterSpec::initial(n, 0));
        EXPECT_TRUE(result.linearizable)
            << "burst " << burst << "\n" << spec::explain(ops, result);
      });
}

TEST(NativeFig3, BurstHistoriesLinearizable) {
  using Fig3 = core::LlscSingleCas<NativeP>;
  const int n = 3;
  run_bursts(
      n, /*bursts=*/40, /*ops_per_thread=*/4,
      [&](int) {
        return std::make_unique<Fig3>(
            g_env, n,
            Fig3::Options{.value_bits = 8, .initial_value = 0,
                          .initially_linked = true});
      },
      [](Fig3& obj, int pid, util::Xoshiro256& rng,
         std::atomic<std::uint64_t>& clock, spec::History& history) {
        const auto dice = rng.below(10);
        if (dice < 4) {
          const auto idx =
              history.begin_op(pid, spec::Method::kLL, 0, clock.fetch_add(1));
          const auto v = obj.ll(pid);
          history.complete(idx, v, clock.fetch_add(1));
        } else if (dice < 8) {
          const std::uint64_t v = rng.below(64);
          const auto idx =
              history.begin_op(pid, spec::Method::kSC, v, clock.fetch_add(1));
          const bool ok = obj.sc(pid, v);
          history.complete(idx, ok ? 1 : 0, clock.fetch_add(1));
        } else {
          const auto idx =
              history.begin_op(pid, spec::Method::kVL, 0, clock.fetch_add(1));
          const bool ok = obj.vl(pid);
          history.complete(idx, ok ? 1 : 0, clock.fetch_add(1));
        }
      },
      [&](const std::vector<spec::Op>& ops, int burst) {
        const auto result = spec::check_linearizable<spec::LlscSpec>(
            ops, spec::LlscSpec::initial(n, 0, true));
        EXPECT_TRUE(result.linearizable)
            << "burst " << burst << "\n" << spec::explain(ops, result);
      });
}

TEST(NativeRegArray, BurstHistoriesLinearizable) {
  using RegArray = core::LlscRegisterArray<NativeP>;
  const int n = 3;
  run_bursts(
      n, /*bursts=*/40, /*ops_per_thread=*/4,
      [&](int) {
        return std::make_unique<RegArray>(
            g_env, n,
            RegArray::Options{.value_bits = 8, .initial_value = 0,
                              .initially_linked = true});
      },
      [](RegArray& obj, int pid, util::Xoshiro256& rng,
         std::atomic<std::uint64_t>& clock, spec::History& history) {
        const auto dice = rng.below(10);
        if (dice < 4) {
          const auto idx =
              history.begin_op(pid, spec::Method::kLL, 0, clock.fetch_add(1));
          const auto v = obj.ll(pid);
          history.complete(idx, v, clock.fetch_add(1));
        } else if (dice < 8) {
          const std::uint64_t v = rng.below(64);
          const auto idx =
              history.begin_op(pid, spec::Method::kSC, v, clock.fetch_add(1));
          const bool ok = obj.sc(pid, v);
          history.complete(idx, ok ? 1 : 0, clock.fetch_add(1));
        } else {
          const auto idx =
              history.begin_op(pid, spec::Method::kVL, 0, clock.fetch_add(1));
          const bool ok = obj.vl(pid);
          history.complete(idx, ok ? 1 : 0, clock.fetch_add(1));
        }
      },
      [&](const std::vector<spec::Op>& ops, int burst) {
        const auto result = spec::check_linearizable<spec::LlscSpec>(
            ops, spec::LlscSpec::initial(n, 0, true));
        EXPECT_TRUE(result.linearizable)
            << "burst " << burst << "\n" << spec::explain(ops, result);
      });
}

// -------------------------------------------------------- invariant stress

// The sound-window oracle for DRead flags. A single writer bumps
// `writes_started` before each DWrite and `writes_completed` after it; a
// reader samples `writes_completed` at each DRead's invocation and
// `writes_started` at its response. Some DWrite then started after the
// previous DRead responded and completed before this DRead was invoked —
// the one case the spec requires flagged — iff the invocation sample
// exceeds the previous response sample. A completion bump that lags past a
// response owes nothing: that DWrite may overlap the previous DRead, which
// could already have reported it.
class ContainedWriteOracle {
 public:
  // `started_now`: `writes_started` sampled before the reader's first DRead.
  explicit ContainedWriteOracle(std::uint64_t started_now)
      : started_at_prev_response_(started_now) {}

  // Records one DRead; returns true iff it owed a flag and reported none.
  bool missed(std::uint64_t completed_at_invoke, bool flag,
              std::uint64_t started_at_response) {
    const bool owed = completed_at_invoke > started_at_prev_response_;
    started_at_prev_response_ = started_at_response;
    return owed && !flag;
  }

 private:
  std::uint64_t started_at_prev_response_;
};

TEST(ContainedWriteOracle, LaggingCompletionBumpOwesNoFlag) {
  // started=1, DWrite runs; DRead #1 overlaps it, flags it, and responds
  // (started=1); the writer's completion bump lands; DRead #2 is invoked
  // (completed=1). The write was not contained between the two DReads.
  ContainedWriteOracle oracle(/*started_now=*/0);
  EXPECT_FALSE(oracle.missed(/*completed_at_invoke=*/0, /*flag=*/true,
                             /*started_at_response=*/1));
  EXPECT_FALSE(oracle.missed(1, /*flag=*/false, 1));
}

TEST(ContainedWriteOracle, WholeWriteBetweenDReadsOwesAFlag) {
  // DRead #1 responds (started=0); a whole DWrite runs (started=1,
  // completed=1); DRead #2 is invoked (completed=1): it must flag. A
  // register that suppresses the flag is caught; one that reports it is not.
  ContainedWriteOracle suppressed(0);
  EXPECT_FALSE(suppressed.missed(0, false, 0));
  EXPECT_TRUE(suppressed.missed(1, /*flag=*/false, 1));

  ContainedWriteOracle reported(0);
  EXPECT_FALSE(reported.missed(0, false, 0));
  EXPECT_FALSE(reported.missed(1, /*flag=*/true, 1));
}

TEST(ContainedWriteOracle, ReportedWriteIsNotOwedAgain) {
  // A whole DWrite runs before DRead #1, which flags it; no write starts
  // afterwards, so DRead #2 owes nothing and a quiet register passes.
  ContainedWriteOracle oracle(0);
  EXPECT_FALSE(oracle.missed(1, /*flag=*/true, 1));
  EXPECT_FALSE(oracle.missed(1, /*flag=*/false, 1));
  // The window slides: a second whole DWrite owes DRead #3 its own flag.
  EXPECT_TRUE(oracle.missed(2, /*flag=*/false, 2));
}

TEST(ContainedWriteOracle, WriteStartedBeforeTheReaderOwesNothing) {
  // The writer had started DWrite #1 before the reader took its first
  // sample (started=1) and completes it before DRead #1 (completed=1): the
  // write was not contained in the reader's window, so no flag is owed.
  ContainedWriteOracle oracle(/*started_now=*/1);
  EXPECT_FALSE(oracle.missed(1, /*flag=*/false, 1));
  // A write started after the first sample is owed as usual.
  EXPECT_TRUE(oracle.missed(2, /*flag=*/false, 2));
}

struct ContainedWriteCounts {
  std::uint64_t violations = 0;
  std::uint64_t flagged_reads = 0;
};

// One writer (pid 0) DWrites `value & value_mask` in a loop while n - 1
// readers each run a fixed number of DReads through the oracle; the writer
// keeps writing until every reader is done, so writes genuinely overlap
// reads on any scheduler.
template <class Reg>
ContainedWriteCounts contained_write_stress(Reg& reg, int n,
                                            std::uint64_t value_mask) {
  std::atomic<std::uint64_t> writes_started{0};
  std::atomic<std::uint64_t> writes_completed{0};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> flagged_reads{0};
  std::atomic<int> readers_running{n - 1};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (readers_running.load() > 0) {
      writes_started.fetch_add(1);
      reg.dwrite(0, i++ & value_mask);
      writes_completed.fetch_add(1);
      if ((i & 63) == 0) std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (int pid = 1; pid < n; ++pid) {
    readers.emplace_back([&, pid] {
      ContainedWriteOracle oracle(writes_started.load());
      for (int i = 0; i < 3000; ++i) {
        const std::uint64_t completed_at_invoke = writes_completed.load();
        const auto [value, flag] = reg.dread(pid);
        const std::uint64_t started_at_response = writes_started.load();
        if (flag) flagged_reads.fetch_add(1);
        if (oracle.missed(completed_at_invoke, flag, started_at_response)) {
          violations.fetch_add(1);
        }
        // A tight loop leaves almost no room for a whole DWrite between two
        // DReads, so few flags would be owed: every other DRead waits until
        // one has run, which owes the next DRead a flag.
        if (i % 2 == 0) {
          while (writes_completed.load() <= started_at_response) {
            std::this_thread::yield();
          }
        }
      }
      readers_running.fetch_sub(1);
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  return {violations.load(), flagged_reads.load()};
}

TEST(NativeFig4Stress, ContainedWritesAreAlwaysFlagged) {
  using Fig4 = core::AbaRegisterBounded<NativeP>;
  const int n = 4;  // 1 writer + 3 readers.
  Fig4 reg(g_env, n, Fig4::Options{.value_bits = 4});
  const auto counts = contained_write_stress(reg, n, 15);
  EXPECT_EQ(counts.violations, 0u);
  EXPECT_GT(counts.flagged_reads, 0u);
}

TEST(NativeFig3Stress, ScSuccessesAreExclusivePerLinkEpoch) {
  using Fig3 = core::LlscSingleCas<NativeP>;
  const int n = 4;
  Fig3 obj(g_env, n, Fig3::Options{.value_bits = 32, .initial_value = 0,
                                   .initially_linked = false});
  // Each thread loops LL; SC(unique value). Every successful SC publishes a
  // globally unique value; values observed by LL must all be distinct
  // successful-SC values (no lost or duplicated successes).
  std::atomic<std::uint64_t> successes{0};
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> per_thread_successes(n, 0);
  for (int pid = 0; pid < n; ++pid) {
    threads.emplace_back([&, pid] {
      for (int i = 0; i < 4000; ++i) {
        obj.ll(pid);
        const std::uint64_t unique =
            (static_cast<std::uint64_t>(i) << 3) | static_cast<std::uint64_t>(pid);
        if (obj.sc(pid, unique)) ++per_thread_successes[pid];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int pid = 0; pid < n; ++pid) successes += per_thread_successes[pid];
  // At least the uncontended successes must land; and never more than the
  // number of attempts.
  EXPECT_GT(successes.load(), 0u);
  EXPECT_LE(successes.load(), static_cast<std::uint64_t>(n) * 4000u);
}

TEST(NativeFig5Stress, ReductionFlagsContainedWrites) {
  using Llsc = core::LlscUnboundedTag<NativeP>;
  const int n = 3;
  Llsc llsc(g_env, n,
            Llsc::Options{.value_bits = 16, .initial_value = 0,
                          .initially_linked = true});
  core::AbaRegisterFromLlsc<Llsc> reg(llsc, n, 0);
  EXPECT_EQ(contained_write_stress(reg, n, 255).violations, 0u);
}

// ----------------------------------------------------------- step counting

TEST(NativeStepCounter, CountsSharedOperations) {
  using Fig4 = core::AbaRegisterBounded<NativeP>;
  Fig4 reg(g_env, 2, Fig4::Options{.value_bits = 4});
  const std::uint64_t before = native::step_counter();
  reg.dwrite(0, 1);
  EXPECT_EQ(native::step_counter() - before, 2u);
  const std::uint64_t mid = native::step_counter();
  reg.dread(1);
  EXPECT_EQ(native::step_counter() - mid, 4u);
}

// ------------------------------------------------------ policy equivalence

// Both policies must satisfy the Platform concept, and the Fast policy must
// actually isolate its words on cache lines.
static_assert(aba::Platform<native::NativePlatform<native::Counted>>);
static_assert(aba::Platform<native::NativePlatform<native::Fast>>);
static_assert(aba::Platform<native::NativePlatform<native::FastAsymmetric>>);
// The fence trait resolves through the platform: asymmetric only where the
// policy opted in, NoFence (orderings carry the edge) everywhere else.
static_assert(
    std::is_same_v<aba::PlatformFenceT<native::NativePlatform<native::FastAsymmetric>>,
                   util::AsymmetricFence>);
static_assert(
    std::is_same_v<aba::PlatformFenceT<native::NativePlatform<native::Fast>>,
                   util::NoFence>);
static_assert(
    std::is_same_v<aba::PlatformFenceT<native::NativePlatform<native::Counted>>,
                   util::NoFence>);
static_assert(alignof(native::NativePlatform<native::Fast>::Cas) >=
              util::kCacheLineSize);
// And the isolated object is exactly one line — the unused bound metadata
// must not push it to two.
static_assert(sizeof(native::NativePlatform<native::Fast>::Cas) ==
              util::kCacheLineSize);
static_assert(alignof(native::NativePlatform<native::Counted>::Cas) <
              util::kCacheLineSize);

// Runs a deterministic token-serialized multithreaded LL/SC workload: n real
// threads, but each operation runs only when the global turn counter hands
// it the token, so the schedule — and hence every operation's result — is a
// pure function of (n, rounds). Running the identical schedule on both
// platform policies must produce identical traces: the Fast policy changes
// instrumentation, layout and backoff, never results.
template <class P>
std::vector<std::uint64_t> tokenized_llsc_trace(int n, int rounds) {
  typename P::Env env;
  core::LlscSingleCas<P> obj(
      env, n,
      typename core::LlscSingleCas<P>::Options{
          .value_bits = 16, .initial_value = 0, .initially_linked = true});
  std::vector<std::uint64_t> trace(static_cast<std::size_t>(n) * rounds, 0);
  std::atomic<int> turn{0};
  std::vector<std::thread> threads;
  for (int pid = 0; pid < n; ++pid) {
    threads.emplace_back([&, pid] {
      for (int r = 0; r < rounds; ++r) {
        const int my_step = r * n + pid;
        while (turn.load() != my_step) std::this_thread::yield();
        std::uint64_t result = 0;
        switch ((pid + r) % 3) {
          case 0:
            result = obj.ll(pid);
            break;
          case 1:
            result = obj.sc(pid, static_cast<std::uint64_t>(my_step) & 0xFFFF)
                         ? 1
                         : 0;
            break;
          default:
            result = obj.vl(pid) ? 1 : 0;
            break;
        }
        trace[static_cast<std::size_t>(my_step)] = result;
        turn.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  return trace;
}

TEST(NativePolicy, FastMatchesCountedOnLlscWorkload) {
  using CountedP = native::NativePlatform<native::Counted>;
  using FastP = native::NativePlatform<native::Fast>;
  const auto counted = tokenized_llsc_trace<CountedP>(3, 64);
  const auto fast = tokenized_llsc_trace<FastP>(3, 64);
  EXPECT_EQ(counted, fast);
}

TEST(NativePolicy, FastPlatformCountsNoSteps) {
  using FastP = native::NativePlatform<native::Fast>;
  FastP::Env env;
  core::LlscSingleCas<FastP> obj(env, 2, {});
  const std::uint64_t before = native::step_counter();
  obj.ll(0);
  obj.sc(0, 1);
  obj.vl(0);
  EXPECT_EQ(native::step_counter(), before);
}

TEST(NativeStepCounter, Fig3WorstCaseRespected) {
  using Fig3 = core::LlscSingleCas<NativeP>;
  const int n = 4;
  Fig3 obj(g_env, n, Fig3::Options{.initially_linked = false});
  for (int pid = 0; pid < n; ++pid) {
    const std::uint64_t before = native::step_counter();
    obj.ll(pid);
    EXPECT_LE(native::step_counter() - before,
              static_cast<std::uint64_t>(1 + 2 * n));
    const std::uint64_t mid = native::step_counter();
    obj.sc(pid, 7);
    EXPECT_LE(native::step_counter() - mid, static_cast<std::uint64_t>(2 * n));
  }
}

}  // namespace
}  // namespace aba::testing
