// Ladders: standalone loops that drive one layer's public API at the
// workload's thread count and platform type, so a workload's end-to-end
// cost can be read against the cost of each layer beneath it.
//
//   word     — read + CAS one P::Cas word.
//   head     — TaggedCasHead load/try_swing until success, with the
//              platform's backoff between failures.
//   fast     — the reclaimer's per-op fast side: begin_op; guard; end_op.
//              The guarded index rotates, so a caching hazard reclaimer
//              publishes on every call, as a pop whose head moved does.
//   retire   — allocate then retire; the sampled retires that land on a
//              scan or an epoch advance carry its cost into the p99.
//   fence    — PlatformFenceT<P>::heavy() timed on one thread while the
//              other threads run the head ladder; P here is the platform
//              whose fence is measured, not necessarily the workload's.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "core/platform.h"
#include "harness.h"
#include "reclaim/reclaimer.h"
#include "sim/types.h"
#include "structures/treiber_stack.h"

namespace perfbench {

// Nodes per thread in every reclaimer pool: the E9 hazard/epoch budget.
inline constexpr int kPoolPerThread = 512;

inline aba::reclaim::FreeLists free_lists(int n, int per_thread) {
  aba::reclaim::FreeLists lists(static_cast<std::size_t>(n));
  std::uint64_t next = 0;
  for (auto& list : lists) {
    for (int i = 0; i < per_thread; ++i) list.push_back(next++);
  }
  return lists;
}

struct alignas(kThreadStateAlign) LadderThread {
  Histogram h;
  std::uint64_t ops = 0;
  std::uint64_t fails = 0;
};

// Runs `op(pid, thread, sample)` on a pinned crew for one window after a
// warm-up; `sample` is true on the 1-in-k sampled calls of the window.
template <class Op>
std::vector<LadderThread> run_ladder(double window_s, Op op) {
  std::vector<LadderThread> threads(kThreads);
  Gate gate(kThreads);
  Gate::Window window;
  run_crew(gate, SteadyClock::now(), window_s, window, [&](int pid) {
    Sampler sampler;
    LadderThread& t = threads[static_cast<std::size_t>(pid)];
    while (!gate.stopped()) {
      op(pid, t, sampler.due() && gate.measuring());
      gate.publish(pid, ++t.ops);
    }
  });
  return threads;
}

inline Histogram merged(const std::vector<LadderThread>& threads) {
  Histogram h;
  for (const auto& t : threads) h.merge(t.h);
  return h;
}

template <class P>
double ladder_word_cas_ns(double window_s) {
  typename P::Env env;
  typename P::Cas word(env, "ladder.word", 0,
                       aba::sim::BoundSpec::unbounded());
  const auto threads = run_ladder(window_s, [&](int, LadderThread& t, bool s) {
    auto once = [&] {
      const std::uint64_t v = word.read();
      if (!word.cas(v, v + 1)) ++t.fails;
    };
    if (s) {
      timed(t.h, once);
    } else {
      once();
    }
  });
  return ticks_to_ns(merged(threads).quantile(0.5));
}

// One TaggedCasHead swing: load/try_swing until it lands, backing off
// between failures exactly as the structures do.
template <class P>
void swing_once(aba::structures::TaggedCasHead<P>& head, int pid,
                LadderThread& t) {
  aba::PlatformBackoffT<P> backoff;
  for (;;) {
    const std::uint64_t observed = head.load(pid);
    if (head.try_swing(pid, observed, static_cast<std::uint64_t>(pid) + 1)) {
      return;
    }
    ++t.fails;
    backoff();
  }
}

struct SwingLadder {
  double p50_ns = 0;
  double fail_share = 0;
};

template <class P>
SwingLadder ladder_head_swing(double window_s) {
  typename P::Env env;
  aba::structures::TaggedCasHead<P> head(env, kThreads);
  const auto threads = run_ladder(window_s, [&](int pid, LadderThread& t,
                                                bool s) {
    if (s) {
      timed(t.h, [&] { swing_once(head, pid, t); });
    } else {
      swing_once(head, pid, t);
    }
  });
  std::uint64_t ops = 0, fails = 0;
  for (const auto& t : threads) {
    ops += t.ops;
    fails += t.fails;
  }
  SwingLadder result;
  result.p50_ns = ticks_to_ns(merged(threads).quantile(0.5));
  result.fail_share = static_cast<double>(fails) /
                      static_cast<double>(fails + ops);
  return result;
}

// Times every heavy() of the last thread; the others swing the head.
template <class P>
double ladder_heavy_fence_ns(double window_s) {
  typename P::Env env;
  aba::structures::TaggedCasHead<P> head(env, kThreads);
  const auto threads = run_ladder(window_s, [&](int pid, LadderThread& t,
                                                bool /*sample*/) {
    if (pid == kThreads - 1) {
      timed(t.h, [] { aba::PlatformFenceT<P>::heavy(); });
    } else {
      swing_once(head, pid, t);
    }
  });
  return ticks_to_ns(threads.back().h.quantile(0.5));
}

template <class P, class R>
double ladder_reclaim_fast_ns(double window_s) {
  typename P::Env env;
  R reclaimer(env, kThreads, free_lists(kThreads, kPoolPerThread));
  const auto threads = run_ladder(window_s, [&](int pid, LadderThread& t,
                                                bool s) {
    const std::uint64_t node =
        static_cast<std::uint64_t>(pid) * kPoolPerThread + t.ops % 8;
    auto once = [&] {
      reclaimer.begin_op(pid);
      if constexpr (R::kNeedsGuard) reclaimer.guard(pid, 0, node);
      reclaimer.end_op(pid);
    };
    if (s) {
      timed(t.h, once);
    } else {
      once();
    }
  });
  return ticks_to_ns(merged(threads).quantile(0.5));
}

struct RetireLadder {
  double p50_ns = 0;
  double p99_ns = 0;
  double refused_share = 0;
};

template <class P, class R>
RetireLadder ladder_retire(double window_s) {
  typename P::Env env;
  R reclaimer(env, kThreads, free_lists(kThreads, kPoolPerThread));
  const auto threads = run_ladder(window_s, [&](int pid, LadderThread& t,
                                                bool s) {
    const std::optional<std::uint64_t> node = reclaimer.allocate(pid);
    if (!node) {
      ++t.fails;
      return;
    }
    if constexpr (requires { reclaimer.commit(pid); }) reclaimer.commit(pid);
    if (s) {
      timed(t.h, [&] { reclaimer.retire(pid, *node); });
    } else {
      reclaimer.retire(pid, *node);
    }
  });
  std::uint64_t ops = 0, fails = 0;
  for (const auto& t : threads) {
    ops += t.ops;
    fails += t.fails;
  }
  const Histogram h = merged(threads);
  RetireLadder result;
  result.p50_ns = ticks_to_ns(h.quantile(0.50));
  result.p99_ns = ticks_to_ns(h.quantile(0.99));
  result.refused_share = static_cast<double>(fails) / static_cast<double>(ops);
  return result;
}

}  // namespace perfbench
