// The push;pop-pair workloads (stack_churn, queue_sharded): the closed-loop
// worker, one timed round, the untraced run and the traced run with its
// Counted pass and layer ladders.
//
// A workload is a Config type naming the structure instance for its Fast
// platform and for NativePlatform<Counted>, its reclaimer, and which layers
// it uses:
//
//   struct Config {
//     using Inst = ...;         // Fast-platform structure (see StackInst).
//     using CountedInst = ...;  // The same shape on NativePlatform<Counted>.
//     using P = ...;            // Platform of Inst, for the ladders.
//     using R = ...;            // Reclaimer of Inst, for the ladders.
//     static constexpr bool kUsesHead, kUsesRouter, kUsesFence;
//     using FenceP = ...;       // With kUsesFence: platform whose heavy
//   };                          // fence the fence ladder times.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "ladders.h"
#include "native/native_platform.h"
#include "reclaim/reclaimer.h"
#include "structures/contention.h"
#include "util/asymmetric_fence.h"

namespace perfbench {

inline constexpr int kMaxShards = 4;

struct alignas(kThreadStateAlign) PairThread {
  Ledger pushed, popped;
  std::uint64_t pairs = 0;
  std::uint64_t refused = 0;  // Puts refused under pool pressure: failures.
  std::uint64_t empty = 0;    // Empty takes: valid answers.
  Histogram put_h, take_h;
  std::array<std::uint64_t, kMaxShards> shard_calls{};
  std::uint64_t steps = 0, rmws = 0, stores = 0;  // Counted platforms only.
  std::unique_ptr<SpanBuffer> spans;               // Traced passes only.
};

// One worker of a round: put;take pairs until the gate stops it. Values
// come from the seed; the ledger records what went in and what came out.
// With drop_one set, the first value taken is left out of the ledger (the
// self-test fault that conservation must catch).
template <Mode M, class Inst>
void pair_worker(Inst& inst, int pid, Gate& gate, PairThread& t,
                 std::uint64_t seed, int round, bool drop_one) {
  Sampler sampler;
  std::uint64_t seq = 0;
  while (!gate.stopped()) {
    const bool record = M != Mode::kPlain && gate.measuring();
    const std::uint64_t op = (static_cast<std::uint64_t>(pid) << 48) | seq;
    const std::uint64_t value = value_of(seed, round, pid, seq++);
    std::int32_t pair_span = -1;
    if constexpr (M == Mode::kTraced) {
      if (record && sampler.due_within(2)) {
        pair_span = t.spans->open("pair", -1, op, aba::util::rdtsc());
      }
    }
    // Runs one call; on the sampled path times it (and traces it).
    auto call = [&](Histogram& h, const char* name, auto fn) {
      if constexpr (M == Mode::kPlain) {
        return fn();
      } else {
        if (!sampler.due() || !record) return fn();
        const std::uint64_t t0 = aba::util::rdtsc();
        auto result = fn();
        const std::uint64_t t1 = aba::util::rdtsc();
        h.add(t1 - t0);
        if constexpr (M == Mode::kTraced) {
          t.spans->close(t.spans->open(name, pair_span, op, t0), t1);
        }
        return result;
      }
    };

    if (call(t.put_h, Inst::kPut, [&] { return inst.put(pid, value); })) {
      t.pushed.add(value);
    } else {
      ++t.refused;
    }
    if constexpr (M == Mode::kTraced) ++t.shard_calls[inst.shard_of(pid)];
    const std::optional<std::uint64_t> got =
        call(t.take_h, Inst::kTake, [&] { return inst.take(pid); });
    if (!got) {
      ++t.empty;
    } else if (drop_one) {
      drop_one = false;
    } else {
      t.popped.add(*got);
    }
    if constexpr (M == Mode::kTraced) {
      ++t.shard_calls[inst.shard_of(pid)];
      if (pair_span >= 0) t.spans->close(pair_span, aba::util::rdtsc());
    }
    gate.publish(pid, 2 * seq);
  }
  t.pairs = seq;
  t.steps = aba::native::step_counter();
  t.rmws = aba::native::rmw_counter();
  t.stores = aba::native::store_counter();
  inst.detach(pid);
}

struct PairRound {
  double setup_s = 0;
  Gate::Window window;
  std::vector<PairThread> threads;
  aba::reclaim::ReclaimStats stats;  // After join, before the drain.
  std::array<std::uint64_t, kMaxShards> shard_failures{};
  Ledger drained;

  std::uint64_t calls() const {
    std::uint64_t c = 0;
    for (const auto& t : threads) c += 2 * t.pairs;
    return c;
  }
  std::uint64_t refused() const {
    std::uint64_t r = 0;
    for (const auto& t : threads) r += t.refused;
    return r;
  }
  Histogram merged(bool puts, bool takes) const {
    Histogram h;
    for (const auto& t : threads) {
      if (puts) h.merge(t.put_h);
      if (takes) h.merge(t.take_h);
    }
    return h;
  }
};

// Builds a fresh structure, spawns and pins the crew (that much is set-up),
// runs one window (none when window_s is 0), joins, reads the reclaimer
// stats and drains what is left.
template <Mode M, class Inst>
PairRound run_pair_round(const Options& o, int round, double window_s,
                         bool drop_one = false) {
  PairRound r;
  r.threads.resize(kThreads);
  if constexpr (M == Mode::kTraced) {
    for (auto& t : r.threads) t.spans = std::make_unique<SpanBuffer>();
  }
  std::array<aba::structures::ContentionProbe, kMaxShards> probes;
  Gate gate(kThreads);
  const auto t0 = SteadyClock::now();
  Inst inst(kThreads);
  if constexpr (M == Mode::kTraced) inst.attach_probes(probes.data());
  r.setup_s = run_crew(gate, t0, window_s, r.window, [&](int pid) {
    pair_worker<M>(inst, pid, gate, r.threads[static_cast<std::size_t>(pid)],
                   o.seed, round, drop_one && pid == 0);
  });
  r.stats = inst.stats();
  for (int s = 0; s < kMaxShards; ++s) r.shard_failures[s] = probes[s].failures();
  while (const std::optional<std::uint64_t> v = inst.take(0)) r.drained.add(*v);
  return r;
}

// Conservation: everything put was taken, in the run or by the drain, by
// count and by hash sum.
inline void check_conservation(const PairRound& r, const std::string& pass,
                               Report& report) {
  Ledger in, out = r.drained;
  for (const auto& t : r.threads) {
    in += t.pushed;
    out += t.popped;
  }
  if (!(in == out)) {
    report.fail(pass + ": conservation violated: put " +
                std::to_string(in.count) + " values, took " +
                std::to_string(out.count) +
                (in.count == out.count ? " (hash sums differ)" : ""));
  }
}

template <class Config>
void run_pair_untraced(const Options& o, Values& out, Report& report) {
  run_rounds(o, [&](int round, double window) {
    const PairRound r = run_pair_round<Mode::kSampled, typename Config::Inst>(
        o, round, window, o.inject == "drop_value" && round == 0);
    check_conservation(r, "round " + std::to_string(round), report);
    report.count_calls(r.calls(), r.refused());
    return RoundResult{r.setup_s, r.window, r.merged(true, true)};
  }, out, report);
}

inline double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// --trace 1: interleaved sampled / traced / unsampled passes, then the
// Counted pass and the ladders of each layer the workload uses.
template <class Config>
void run_pair_traced(const Options& o, Values& out, Report& report) {
  using Inst = typename Config::Inst;
  using P = typename Config::P;
  using R = typename Config::R;
  const double window = trace_window(o.seconds);
  const double ladder = ladder_window(o.seconds);

  OverheadPasses overhead;
  Histogram sampled_all, push_h, pop_h;
  std::uint64_t calls = 0, puts = 0, refused = 0, empty = 0;
  std::uint64_t failures = 0;
  std::array<std::uint64_t, kMaxShards> shard_calls{}, shard_failures{};
  std::vector<double> backlog, lag, guards;
  std::uint64_t spans = 0, spans_dropped = 0, fences = 0;
  auto account = [&](const PairRound& r, const std::string& pass) {
    check_conservation(r, pass, report);
    report.count_calls(r.calls(), r.refused());
  };
  for (int pass = 0; pass < kTracePasses; ++pass) {
    const PairRound s = run_pair_round<Mode::kSampled, Inst>(o, 3 * pass, window);
    account(s, "sampled pass");
    overhead.sampled.push_back(s.window.mops());
    sampled_all.merge(s.merged(true, true));

    const std::uint64_t fences_before = aba::util::heavy_fence_count();
    const PairRound t = run_pair_round<Mode::kTraced, Inst>(o, 3 * pass + 1, window);
    fences += aba::util::heavy_fence_count() - fences_before;
    account(t, "traced pass");
    overhead.traced.push_back(t.window.mops());
    push_h.merge(t.merged(true, false));
    pop_h.merge(t.merged(false, true));
    calls += t.calls();
    puts += t.calls() / 2;
    refused += t.refused();
    for (const auto& th : t.threads) {
      empty += th.empty;
      for (int shard = 0; shard < kMaxShards; ++shard) {
        shard_calls[shard] += th.shard_calls[shard];
      }
      spans += th.spans->spans().size();
      spans_dropped += th.spans->dropped();
    }
    for (int shard = 0; shard < kMaxShards; ++shard) {
      shard_failures[shard] += t.shard_failures[shard];
      failures += t.shard_failures[shard];
    }
    backlog.push_back(static_cast<double>(t.stats.retired_unreclaimed));
    lag.push_back(static_cast<double>(t.stats.epoch_lag));
    guards.push_back(static_cast<double>(t.stats.guard_slots_occupied));
    if (!o.trace_out.empty()) {
      std::vector<const SpanBuffer*> buffers;
      for (const auto& th : t.threads) buffers.push_back(th.spans.get());
      if (!write_spans(o.trace_out, "traced-" + std::to_string(pass), buffers)) {
        report.fail("cannot write spans to " + o.trace_out);
      }
    }

    const PairRound u = run_pair_round<Mode::kPlain, Inst>(o, 3 * pass + 2, window);
    account(u, "unsampled pass");
    overhead.unsampled.push_back(u.window.mops());
  }
  add_overheads(overhead, out);
  out["e2e.op_p999_ns"] = ticks_to_ns(sampled_all.quantile(0.999));
  out["structures.push_ns.p50"] = ticks_to_ns(push_h.quantile(0.50));
  out["structures.push_ns.p99"] = ticks_to_ns(push_h.quantile(0.99));
  out["structures.pop_ns.p50"] = ticks_to_ns(pop_h.quantile(0.50));
  out["structures.pop_ns.p99"] = ticks_to_ns(pop_h.quantile(0.99));
  out["structures.cas_fail_per_op"] = share(failures, calls);
  out["structures.empty_pop_share"] = share(empty, calls - puts);
  out["structures.refused_push_share"] = share(refused, puts);
  if constexpr (Config::kUsesRouter) {
    double worst = 0;
    for (int s = 0; s < kMaxShards; ++s) {
      worst = std::max(worst, share(shard_failures[s], shard_calls[s]));
    }
    out["structures.router.cas_fail_per_op.max"] = worst;
  }
  out["reclaim.backlog_nodes"] = median(backlog);
  out["reclaim.epoch_lag"] = median(lag);
  out["reclaim.guard_slots"] = median(guards);
  out["util.fence.heavy_per_op"] = share(fences, calls);
  report.record_num("trace_spans", static_cast<double>(spans));
  report.record_num("trace_spans_dropped", static_cast<double>(spans_dropped));

  // Counted pass: ledger deltas per call. seq_cst + NullBackoff, so these
  // count the algorithm's shared steps, not the Fast schedule's.
  {
    const PairRound c =
        run_pair_round<Mode::kPlain, typename Config::CountedInst>(
            o, 100, ladder);
    account(c, "counted pass");
    std::uint64_t steps = 0, rmws = 0, stores = 0;
    for (const auto& t : c.threads) {
      steps += t.steps;
      rmws += t.rmws;
      stores += t.stores;
    }
    out["native.steps_per_op"] = share(steps, c.calls());
    out["native.rmw_per_op"] = share(rmws, c.calls());
    out["native.stores_per_op"] = share(stores, c.calls());
  }

  out["native.word_cas_ns"] = ladder_word_cas_ns<P>(ladder);
  out["reclaim.fast_ns"] = ladder_reclaim_fast_ns<P, R>(ladder);
  const RetireLadder retire = ladder_retire<P, R>(ladder);
  out["reclaim.retire_ns.p50"] = retire.p50_ns;
  out["reclaim.retire_ns.p99"] = retire.p99_ns;
  out["reclaim.alloc_refused_share"] = retire.refused_share;
  if constexpr (Config::kUsesHead) {
    const SwingLadder swing = ladder_head_swing<P>(ladder);
    out["structures.head.swing_ns"] = swing.p50_ns;
    out["structures.head.swing_fail_share"] = swing.fail_share;
  }
  if constexpr (Config::kUsesFence) {
    out["util.fence.heavy_ns"] =
        ladder_heavy_fence_ns<typename Config::FenceP>(ladder);
  }
}

template <class Config>
void run_pair_workload(const Options& o, Values& out, Report& report) {
  if (o.trace) {
    run_pair_traced<Config>(o, out, report);
  } else {
    run_pair_untraced<Config>(o, out, report);
  }
}

}  // namespace perfbench
