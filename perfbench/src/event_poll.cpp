// event_poll: the paper's own object in its Section 1 use case. One
// signaller pulses DWrite(v);DWrite(0) once every kPulsePeriodNs, with v a
// seeded bit, so half the pulses rewrite the value already there (a pure
// ABA); 3 pollers DRead an AbaRegisterBounded (Figure 4, n = 4, 1-bit
// value) on NativePlatform<Fast> in a closed loop. Reads beside writes in
// core: no reclaimer, no backoff, no router. The signaller is paced
// because a flat-out writer turns every poll into a cache-line race whose
// rate swung 14-23 Mops/s between half-second rounds on a 4-vCPU KVM guest
// (Intel Xeon); paced, the pollers' rate is a property of DRead.
//
// Every DRead is checked against the sound-window oracle: a flag is owed
// iff some DWrite started after the poller's previous DRead responded and
// completed before this DRead was invoked. The signaller bumps `started`
// before each DWrite and `completed` after it; a poller samples
// `completed` at invocation and `started` at response, all seq_cst. A
// DRead that reports no flag must also return the previous DRead's value.
// A tight poll loop leaves almost no room between DReads for a whole DWrite,
// so few flags are owed there; an untimed oracle pass, in which pollers
// wait a seeded gap of up to three pulse periods after each DRead, makes
// owed flags common and must see some. A NativePlatform<Counted> pass
// checks Theorem 3's step counts exactly: DWrite = 2 and DRead = 4 shared
// steps.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/aba_register_bounded.h"
#include "harness.h"
#include "native/native_platform.h"
#include "util/backoff.h"
#include "util/cacheline.h"
#include "workloads.h"

namespace perfbench {
namespace {

using FastP = aba::native::NativePlatform<aba::native::Fast>;
using CountedP = aba::native::NativePlatform<aba::native::Counted>;

template <class P>
constexpr bool kCounted = std::is_same_v<P, CountedP>;

constexpr int kSignaller = 0;
constexpr double kPulsePeriodNs = 10000;
constexpr std::uint64_t kDWriteSteps = 2;
constexpr std::uint64_t kDReadSteps = 4;

std::uint64_t pulse_period_ticks() {
  return static_cast<std::uint64_t>(kPulsePeriodNs / aba::util::tick_ns());
}

// Spins until the tick counter reaches `until`.
void spin_until(std::uint64_t until) {
  while (aba::util::rdtsc() < until) aba::util::cpu_relax();
}

std::uint64_t pulse_bit(std::uint64_t seed, int round, std::uint64_t pulse) {
  return mix64(seed ^ 0xa0761d6478bd642full ^
               (static_cast<std::uint64_t>(round) << 40) ^ pulse) &
         1;
}

template <class P>
struct EventInst {
  typename P::Env env;
  aba::core::AbaRegisterBounded<P> reg{env, kThreads, {.value_bits = 1}};
  // The oracle's write counters (benchmark state, not platform objects).
  aba::util::Padded<std::atomic<std::uint64_t>> started, completed;
};

struct alignas(kThreadStateAlign) PollThread {
  std::uint64_t dwrites = 0, dreads = 0;
  std::uint64_t flagged = 0, owed = 0;
  std::uint64_t missed = 0;      // Owed flags not reported.
  std::uint64_t bad_values = 0;  // Unflagged DReads whose value changed.
  std::uint64_t wrong_steps = 0;  // Counted pass: calls off Theorem 3.
  Histogram dwrite_h, dread_h;
  std::uint64_t steps = 0, rmws = 0, stores = 0;
  std::unique_ptr<SpanBuffer> spans;
};

template <Mode M, class P>
void signaller(EventInst<P>& inst, Gate& gate, PollThread& t,
               std::uint64_t seed, int round) {
  Sampler sampler;
  std::uint64_t writes = 0, pulse = 0;
  const std::uint64_t period = pulse_period_ticks();
  std::uint64_t next = aba::util::rdtsc();
  while (!gate.stopped()) {
    spin_until(next);
    // A late signaller does not burst to catch up: the schedule restarts.
    next = std::max(next + period, aba::util::rdtsc());
    const bool record = M != Mode::kPlain && gate.measuring();
    std::int32_t pulse_span = -1;
    if constexpr (M == Mode::kTraced) {
      if (record && sampler.due_within(2)) {
        pulse_span = t.spans->open("pulse", -1, pulse, aba::util::rdtsc());
      }
    }
    auto dwrite = [&](std::uint64_t v) {
      inst.started.value.store(++writes, std::memory_order_seq_cst);
      [[maybe_unused]] std::uint64_t steps0 = 0;
      if constexpr (kCounted<P>) steps0 = aba::native::step_counter();
      if (M != Mode::kPlain && sampler.due() && record) {
        const std::uint64_t t0 = aba::util::rdtsc();
        inst.reg.dwrite(kSignaller, v);
        const std::uint64_t t1 = aba::util::rdtsc();
        t.dwrite_h.add(t1 - t0);
        if constexpr (M == Mode::kTraced) {
          t.spans->close(t.spans->open("dwrite", pulse_span, pulse, t0), t1);
        }
      } else {
        inst.reg.dwrite(kSignaller, v);
      }
      if constexpr (kCounted<P>) {
        if (aba::native::step_counter() - steps0 != kDWriteSteps) {
          ++t.wrong_steps;
        }
      }
      inst.completed.value.store(writes, std::memory_order_seq_cst);
    };
    dwrite(pulse_bit(seed, round, pulse));
    dwrite(0);
    if constexpr (M == Mode::kTraced) {
      if (pulse_span >= 0) t.spans->close(pulse_span, aba::util::rdtsc());
    }
    ++pulse;
    gate.publish(kSignaller, writes);
  }
  t.dwrites = writes;
}

// kGapped: wait a seeded gap after each DRead (the oracle pass).
// suppress_one: hide the first owed flag (the self-test fault).
template <Mode M, class P, bool kGapped>
void poller(EventInst<P>& inst, int q, Gate& gate, PollThread& t,
            std::uint64_t seed, bool suppress_one) {
  Sampler sampler;
  const std::uint64_t max_gap = 3 * pulse_period_ticks();
  std::uint64_t prev_started = 0;  // `started` at the previous response.
  std::uint64_t prev_value = 0;    // The register's initial value.
  std::uint64_t reads = 0;
  while (!gate.stopped()) {
    const bool sample = M != Mode::kPlain && sampler.due() && gate.measuring();
    std::uint64_t poll_t0 = 0, t0 = 0, t1 = 0;
    if (M == Mode::kTraced && sample) poll_t0 = aba::util::rdtsc();
    const std::uint64_t completed_at_invoke =
        inst.completed.value.load(std::memory_order_seq_cst);
    [[maybe_unused]] std::uint64_t steps0 = 0;
    if constexpr (kCounted<P>) steps0 = aba::native::step_counter();
    if (sample) t0 = aba::util::rdtsc();
    auto [value, flag] = inst.reg.dread(q);
    if (sample) t1 = aba::util::rdtsc();
    if constexpr (kCounted<P>) {
      if (aba::native::step_counter() - steps0 != kDReadSteps) ++t.wrong_steps;
    }
    const std::uint64_t started_at_response =
        inst.started.value.load(std::memory_order_seq_cst);

    const bool owed = completed_at_invoke > prev_started;
    if (owed && suppress_one) {
      flag = false;
      suppress_one = false;
    }
    if (owed) {
      ++t.owed;
      if (!flag) ++t.missed;
    }
    if (!flag && value != prev_value) ++t.bad_values;
    if (flag) ++t.flagged;
    prev_started = started_at_response;
    prev_value = value;
    if constexpr (kGapped) {
      const std::uint64_t gap =
          mix64(seed ^ (static_cast<std::uint64_t>(q) << 48) ^ reads) % max_gap;
      spin_until(aba::util::rdtsc() + gap);
    }
    if (sample) {
      t.dread_h.add(t1 - t0);
      if constexpr (M == Mode::kTraced) {
        // The poll span adds the oracle's bookkeeping around the DRead.
        const std::int32_t poll = t.spans->open("poll", -1, reads, poll_t0);
        t.spans->close(t.spans->open("dread", poll, reads, t0), t1);
        t.spans->close(poll, aba::util::rdtsc());
      }
    }
    gate.publish(q, ++reads);
  }
  t.dreads = reads;
}

struct EventRound {
  double setup_s = 0;
  Gate::Window window;
  std::vector<PollThread> threads;

  template <class F>
  std::uint64_t sum(F f) const {
    std::uint64_t s = 0;
    for (const auto& t : threads) s += f(t);
    return s;
  }
  std::uint64_t calls() const {
    return sum([](const PollThread& t) { return t.dwrites + t.dreads; });
  }
  Histogram merged(bool dwrites, bool dreads) const {
    Histogram h;
    for (const auto& t : threads) {
      if (dwrites) h.merge(t.dwrite_h);
      if (dreads) h.merge(t.dread_h);
    }
    return h;
  }
};

template <Mode M, class P, bool kGapped = false>
EventRound run_event_round(const Options& o, int round, double window_s,
                           bool suppress_one = false) {
  EventRound r;
  r.threads.resize(kThreads);
  if constexpr (M == Mode::kTraced) {
    for (auto& t : r.threads) t.spans = std::make_unique<SpanBuffer>();
  }
  Gate gate(kThreads);
  const auto t0 = SteadyClock::now();
  EventInst<P> inst;
  r.setup_s = run_crew(gate, t0, window_s, r.window, [&](int pid) {
    PollThread& t = r.threads[static_cast<std::size_t>(pid)];
    if (pid == kSignaller) {
      signaller<M>(inst, gate, t, o.seed, round);
    } else {
      poller<M, P, kGapped>(inst, pid, gate, t, o.seed, suppress_one && pid == 1);
    }
    t.steps = aba::native::step_counter();
    t.rmws = aba::native::rmw_counter();
    t.stores = aba::native::store_counter();
  });
  return r;
}

void check_round(const EventRound& r, const std::string& pass,
                 Report& report) {
  const auto missed = r.sum([](const PollThread& t) { return t.missed; });
  const auto bad = r.sum([](const PollThread& t) { return t.bad_values; });
  const auto owed = r.sum([](const PollThread& t) { return t.owed; });
  const auto wrong = r.sum([](const PollThread& t) { return t.wrong_steps; });
  if (missed != 0) {
    report.fail(pass + ": " + std::to_string(missed) + " of " +
                std::to_string(owed) + " owed flags missed");
  }
  if (bad != 0) {
    report.fail(pass + ": " + std::to_string(bad) +
                " unflagged DReads returned a changed value");
  }
  if (wrong != 0) {
    report.fail(pass + ": " + std::to_string(wrong) +
                " calls off Theorem 3 (DWrite = 2, DRead = 4 steps)");
  }
  report.count_calls(r.calls(), 0);
}

// The untimed checking passes every invocation runs: the gapped oracle pass
// (where the self-test fault is planted) and the Counted pass, whose round
// is returned for its step ledgers.
EventRound checking_passes(const Options& o, double window_s, Report& report) {
  const EventRound g = run_event_round<Mode::kPlain, FastP, true>(
      o, 200, window_s, o.inject == "suppress_flag");
  check_round(g, "oracle pass", report);
  const auto owed = g.sum([](const PollThread& t) { return t.owed; });
  if (owed == 0) {
    report.fail("oracle pass: no DRead was owed a flag in " +
                std::to_string(g.threads[kSignaller].dwrites) + " DWrites");
  }
  report.record_num("oracle_owed_flags", static_cast<double>(owed));
  EventRound c = run_event_round<Mode::kPlain, CountedP>(o, 100, window_s);
  check_round(c, "counted pass", report);
  return c;
}

void run_untraced(const Options& o, Values& out, Report& report) {
  run_rounds(o, [&](int round, double window) {
    const EventRound r =
        run_event_round<Mode::kSampled, FastP>(o, round, window);
    check_round(r, "round " + std::to_string(round), report);
    return RoundResult{r.setup_s, r.window, r.merged(true, true)};
  }, out, report);
  checking_passes(o, 0.02 * o.seconds, report);
}

void run_traced(const Options& o, Values& out, Report& report) {
  const double window = trace_window(o.seconds);
  OverheadPasses overhead;
  Histogram sampled_all, dread_h, dwrite_h;
  std::uint64_t dreads = 0, flagged = 0, spans = 0, spans_dropped = 0;
  for (int pass = 0; pass < kTracePasses; ++pass) {
    const EventRound s =
        run_event_round<Mode::kSampled, FastP>(o, 3 * pass, window);
    check_round(s, "sampled pass", report);
    overhead.sampled.push_back(s.window.mops());
    sampled_all.merge(s.merged(true, true));

    const EventRound t =
        run_event_round<Mode::kTraced, FastP>(o, 3 * pass + 1, window);
    check_round(t, "traced pass", report);
    overhead.traced.push_back(t.window.mops());
    dread_h.merge(t.merged(false, true));
    dwrite_h.merge(t.merged(true, false));
    dreads += t.sum([](const PollThread& th) { return th.dreads; });
    flagged += t.sum([](const PollThread& th) { return th.flagged; });
    std::vector<const SpanBuffer*> buffers;
    for (const auto& th : t.threads) {
      buffers.push_back(th.spans.get());
      spans += th.spans->spans().size();
      spans_dropped += th.spans->dropped();
    }
    if (!o.trace_out.empty() &&
        !write_spans(o.trace_out, "traced-" + std::to_string(pass), buffers)) {
      report.fail("cannot write spans to " + o.trace_out);
    }

    const EventRound u =
        run_event_round<Mode::kPlain, FastP>(o, 3 * pass + 2, window);
    check_round(u, "unsampled pass", report);
    overhead.unsampled.push_back(u.window.mops());
  }
  add_overheads(overhead, out);
  out["e2e.op_p999_ns"] = ticks_to_ns(sampled_all.quantile(0.999));
  out["core.dread_ns.p50"] = ticks_to_ns(dread_h.quantile(0.50));
  out["core.dread_ns.p99"] = ticks_to_ns(dread_h.quantile(0.99));
  out["core.dwrite_ns.p50"] = ticks_to_ns(dwrite_h.quantile(0.50));
  out["core.flag_share"] =
      static_cast<double>(flagged) / static_cast<double>(dreads);
  report.record_num("trace_spans", static_cast<double>(spans));
  report.record_num("trace_spans_dropped", static_cast<double>(spans_dropped));

  // The per-call step counts were checked exactly inside the pass; what is
  // reported is the ledger average, which equals them when the check held.
  const EventRound c = checking_passes(o, ladder_window(o.seconds), report);
  const auto dw = c.sum([](const PollThread& t) { return t.dwrites; });
  const auto dr = c.sum([](const PollThread& t) { return t.dreads; });
  const auto& w = c.threads[kSignaller];
  std::uint64_t read_steps = 0;
  for (int q = 1; q < kThreads; ++q) read_steps += c.threads[q].steps;
  out["core.dwrite_steps"] =
      static_cast<double>(w.steps) / static_cast<double>(dw);
  out["core.dread_steps"] =
      static_cast<double>(read_steps) / static_cast<double>(dr);
  const auto steps = c.sum([](const PollThread& t) { return t.steps; });
  const auto rmws = c.sum([](const PollThread& t) { return t.rmws; });
  const auto stores = c.sum([](const PollThread& t) { return t.stores; });
  const double calls = static_cast<double>(c.calls());
  out["native.steps_per_op"] = static_cast<double>(steps) / calls;
  out["native.rmw_per_op"] = static_cast<double>(rmws) / calls;
  out["native.stores_per_op"] = static_cast<double>(stores) / calls;
}

}  // namespace

void run_event_poll(const Options& o, Values& out, Report& report) {
  if (o.trace) {
    run_traced(o, out, report);
  } else {
    run_untraced(o, out, report);
  }
}

}  // namespace perfbench
