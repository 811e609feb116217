// E9 — the native fast-path matrix: NativePlatform<Counted> vs
// NativePlatform<Fast> throughput across the repository's contended objects,
// swept over thread counts, written to BENCH_native.json.
//
// Two scenario families, each exercised by real threads hammering one
// shared object (the object an algorithm's proofs are about):
//
//   core objects (reclaimer = "none"):
//     llsc_single_cas — Figure 3 LL;SC pairs on the single CAS word;
//     aba_register    — Figure 4 DWrite/DRead mix on X plus the announce
//                       array;
//
//   structures × reclamation policy (reclaimer = tagged|leaky|hazard|
//   hazard_cached|epoch|epoch_deferred, the src/reclaim/ axis — relative
//   cost of each ABA answer; epoch_deferred_b<K> cells sweep the deferred
//   pipeline's retire-batch override):
//     treiber_stack         — push;pop pairs through a bounded-tag CAS head;
//     treiber_stack_llsc    — the same pairs through a per-shard-free
//                             Figure 3 LL/SC head, so the (head × reclaimer)
//                             grid the tests check is also the grid the
//                             benches measure;
//     ms_queue              — enqueue;dequeue pairs on Michael-Scott
//                             head/tail;
//     treiber_stack_90_10   — read-heavy mix: 90% pops / 10% pushes, so the
//                             stack is empty most of the time and the
//                             common case is the head-read fast path (what
//                             a guard-per-dereference policy taxes most);
//     treiber_stack_oversub — push;pop pairs with 4× hardware_concurrency
//                             threads: preemption mid-operation, the regime
//                             where backoff yields and stalled readers
//                             (epoch's weakness) actually happen;
//     sharded_treiber_stack, sharded_ms_queue
//                           — the structures/sharded.h wrappers: the same
//                             pairs spread over --shards per-shard heads
//                             with home-shard routing and bounded stealing.
//
//   ring family (structures/ring_buffer.h; reclaimer = "none" — the
//   per-slot sequence words are the ABA answer, there is nothing to
//   reclaim). These cells ALWAYS record per-op latency (p50/p99/p99.9 ns in
//   the schema-2 record): the ring workloads are latency-bound, and the
//   SPSC↔MPMC percentile gap is the paper's prevention price measured on a
//   second axis. Scenarios:
//     ring_spsc     — 1 producer, 1 consumer, zero shared RMW per op;
//     ring_mpsc     — n-1 producers CASing tail into 1 consumer;
//     ring_mpmc     — the Vyukov ring, threads split producer/consumer;
//     ring_fanout   — 1 producer feeding n-1 consumers (feed fan-out);
//     ring_burst    — the producer alternates dense bursts with quiet
//                     gaps (load spikes: tail percentiles diverge from
//                     p50 as bursts queue up);
//     ring_pipeline — feed → handler → gateway over two chained SPSC
//                     rings (3 threads; per-hop op latency).
//
// Latency recording for the legacy (throughput-trajectory) cells is opt-in
// via --latency, and only for the headline treiber_stack / ms_queue cells:
// the recorder is a template parameter, so the committed BENCH_native.json
// throughput cells run the exact code they always ran when the flag is off.
//
// The fence dimension: every record carries a "fence" field. "seq_cst"
// cells realize the hazard/epoch StoreLoad protocols with seq_cst
// orderings (the Fast policy); "asymmetric" cells run the hazard-family
// reclaimers on NativePlatform<FastAsymmetric> — guard publish is a plain
// release store + compiler barrier, and the scan carries the heavy
// membarrier side (util/asymmetric_fence.h). The hazard-vs-tagged gap
// under each fence scheme is printed at the end: that gap narrowing is
// the guard-cache + asymmetric-fence story this matrix exists to measure.
//
// Leaky cells are drain-limited: the pool is finite and never refills, so a
// worker that can no longer make useful progress exits and the cell records
// the ops and seconds actually measured (the no-reclamation throughput
// floor, while it lasts).
//
// Thread pinning (--pin): round-robin pthread_setaffinity_np over the
// online cores, recorded in the JSON context; auto-off per cell whenever
// the cell wants more threads than there are cores (the 1-core CI box and
// every oversubscribed cell), so the flag is always safe to pass.
//
// Flags (google-benchmark-compatible where it matters for CI):
//   --benchmark_min_time=SECONDS  per-cell measurement time (default 0.2)
//   --out=PATH                    output JSON path (default BENCH_native.json)
//   --threads=1,2,4               thread counts to sweep
//   --reclaimers=tagged,epoch     reclamation policies to sweep (default all
//                                 of tagged,leaky,hazard,hazard_cached,
//                                 epoch,epoch_deferred)
//   --shards=1,2,4,8              shard counts for the sharded scenarios
//                                 (compiled instantiations: 1, 2, 4, 8); a
//                                 token that is not a positive integer is
//                                 an error (exit 2)
//   --pin                         pin threads round-robin over online cores
//   --latency                     also record per-op latency percentiles for
//                                 the headline legacy cells (treiber_stack,
//                                 ms_queue); ring cells always record
//   --scenarios=burst,fanout      run only the named scenarios ("burst"
//                                 matches "ring_burst"); default all
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "bench_json.h"
#include "core/aba_register_bounded.h"
#include "core/llsc_single_cas.h"
#include "native/native_platform.h"
#include "reclaim/epoch.h"
#include "reclaim/hazard_pointer.h"
#include "reclaim/leaky.h"
#include "reclaim/tagged.h"
#include "structures/ms_queue.h"
#include "structures/ring_buffer.h"
#include "structures/sharded.h"
#include "structures/treiber_stack.h"
#include "util/asymmetric_fence.h"
#include "util/histogram.h"

namespace {

using namespace aba;

template <class Policy>
constexpr const char* orderings_label() {
  return Policy::kStoreOrder == std::memory_order_seq_cst ? "seq_cst"
                                                          : "acquire_release";
}

// The fence scheme a platform's hazard-family cells run under (what the
// JSON "fence" field records).
template <class P>
constexpr const char* fence_label() {
  return std::is_same_v<PlatformFenceT<P>, util::AsymmetricFence>
             ? "asymmetric"
             : "seq_cst";
}

struct Cell {
  std::uint64_t ops = 0;
  double seconds = 0.0;
  // Per-op latency percentiles (ns); 0 = this cell did not record latency.
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
};

// --pin state: the online-core list, round-robined over per cell. A cell
// that wants more threads than cores runs unpinned (auto-off).
struct PinConfig {
  bool requested = false;
  std::vector<int> cpus;
};
PinConfig g_pin;

std::vector<int> online_cpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
#endif
  return cpus;
}

void maybe_pin(std::thread& t, int pid, int n) {
#ifdef __linux__
  if (!g_pin.requested) return;
  if (static_cast<int>(g_pin.cpus.size()) < n) return;  // Auto-off.
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(g_pin.cpus[static_cast<std::size_t>(pid) % g_pin.cpus.size()], &set);
  pthread_setaffinity_np(t.native_handle(), sizeof(set), &set);
#else
  (void)t;
  (void)pid;
  (void)n;
#endif
}

// Runs n threads for ~min_seconds. make_worker(pid) returns a callable that
// performs one small batch of operations and returns the batch's completed
// op count; workers loop batches until the stop flag flips, or exit early
// when a batch reports no useful work (a drained leaky pool). Duration-based
// (rather than fixed-count) measurement keeps every cell comparable even
// when the two policies differ several-fold in speed.
//
// Latency-recording cells pass a make_worker(pid, util::LatencyHistogram&)
// instead: each thread owns a private histogram of raw tick deltas, the
// histograms are merged after join, and the cell's percentiles are
// converted to nanoseconds once (util::tick_ns()). Throughput-only workers
// take the one-argument form and compile exactly as before.
template <class MakeWorker>
Cell measure(int n, double min_seconds, MakeWorker make_worker) {
  constexpr bool kRecordsLatency =
      std::is_invocable_v<MakeWorker&, int, util::LatencyHistogram&>;
  std::atomic<bool> stop{false};
  std::atomic<int> done{0};
  std::vector<util::LatencyHistogram> hists(
      kRecordsLatency ? static_cast<std::size_t>(n) : 0);
  std::vector<std::uint64_t> ops(static_cast<std::size_t>(n), 0);
  // Each worker times itself and the cell reports the makespan (longest
  // worker duration): on an oversubscribed or 1-core host a fast-draining
  // worker can finish before the coordinating thread is even scheduled
  // again, so coordinator-side timestamps would wildly inflate the rate of
  // drain-limited (leaky) cells.
  std::vector<double> seconds(static_cast<std::size_t>(n), 0.0);
  std::barrier sync(n + 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    threads.emplace_back([&, pid] {
      auto work = [&] {
        if constexpr (kRecordsLatency) {
          return make_worker(pid, hists[static_cast<std::size_t>(pid)]);
        } else {
          return make_worker(pid);
        }
      }();
      sync.arrive_and_wait();
      const auto start = std::chrono::steady_clock::now();
      std::uint64_t count = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t did = work();
        if (did == 0) break;  // No useful work left (drained pool).
        count += did;
      }
      const auto end = std::chrono::steady_clock::now();
      ops[static_cast<std::size_t>(pid)] = count;
      seconds[static_cast<std::size_t>(pid)] =
          std::chrono::duration<double>(end - start).count();
      done.fetch_add(1);
    });
    maybe_pin(threads.back(), pid, n);
  }
  sync.arrive_and_wait();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(min_seconds);
  while (done.load() < n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  Cell cell;
  for (const auto c : ops) cell.ops += c;
  for (const auto s : seconds) cell.seconds = cell.seconds > s ? cell.seconds : s;
  if constexpr (kRecordsLatency) {
    util::LatencyHistogram merged;
    for (const auto& h : hists) merged.merge(h);
    if (merged.total() > 0) {
      const double ns = util::tick_ns();
      cell.p50_ns = static_cast<double>(merged.percentile(0.50)) * ns;
      cell.p99_ns = static_cast<double>(merged.percentile(0.99)) * ns;
      cell.p999_ns = static_cast<double>(merged.percentile(0.999)) * ns;
    }
  }
  return cell;
}

constexpr int kBatch = 64;

// --------------------------------------------- core objects (no reclaimer)

template <class P>
Cell run_llsc(int n, double secs) {
  typename P::Env env;
  core::LlscSingleCas<P> obj(
      env, n,
      typename core::LlscSingleCas<P>::Options{
          .value_bits = 16, .initial_value = 0, .initially_linked = true});
  return measure(n, secs, [&](int pid) {
    return [&obj, pid] {
      for (int i = 0; i < kBatch; ++i) {
        const std::uint64_t v = obj.ll(pid);
        obj.sc(pid, (v + 1) & 0xFFFF);
      }
      return std::uint64_t{2 * kBatch};
    };
  });
}

template <class P>
Cell run_aba_register(int n, double secs) {
  typename P::Env env;
  core::AbaRegisterBounded<P> reg(
      env, n, typename core::AbaRegisterBounded<P>::Options{.value_bits = 8});
  return measure(n, secs, [&](int pid) {
    return [&reg, pid, x = std::uint64_t{0}]() mutable {
      for (int i = 0; i < kBatch; ++i) {
        reg.dwrite(pid, x++ & 255);
        reg.dread(pid);
      }
      return std::uint64_t{2 * kBatch};
    };
  });
}

// ------------------------------------- structures × reclamation policies

// Pool sizing: deferred-reuse policies keep a bounded backlog, so a modest
// pool suffices; the leaky policy consumes one node per push forever, so it
// gets a large (but bounded) budget and its cells end at drain. Either way
// the total pool must fit the structures' 16-bit index fields, even at the
// oversubscribed thread counts. The hazard-family floor covers the raised
// asymmetric-platform scan batch (kHeavyFenceBatch retires in flight) plus
// the guard-pinned headroom.
template <class R>
int pool_per_thread(int n) {
  const bool leaky = std::strcmp(R::kName, "leaky") == 0;
  const int budget = leaky ? (1 << 13) : 512;
  const int index_space_cap = 60000 / n;
  return budget < index_space_cap ? budget : index_space_cap;
}

// Per-primitive latency recorders for the recorder-templated pair workers.
// NullRecorder is the default and compiles to nothing, so the
// throughput-trajectory cells run byte-identical op loops whether or not
// the binary was built with --latency support in mind.
struct NullRecorder {
  void begin() {}
  void end() {}
};

struct TscRecorder {
  util::LatencyHistogram* hist;
  std::uint64_t t0 = 0;
  void begin() { t0 = util::rdtsc(); }
  void end() { hist->add(util::rdtsc() - t0); }
};

// The push;pop-pair worker every contended stack cell runs (the sharded
// wrapper exposes the same surface, so one worker serves both).
template <class Stack, class Rec = NullRecorder>
auto stack_pair_worker(Stack& stack, int pid, Rec rec = {}) {
  return [&stack, pid, rec, v = std::uint64_t{0}]() mutable {
    std::uint64_t completed = 0;
    bool useful = false;
    for (int i = 0; i < kBatch; ++i) {
      // push;pop pairs keep the pool balanced; if this thread's free
      // list drained (its nodes were popped by others, or leaked), pop
      // to keep making progress.
      rec.begin();
      const bool pushed = stack.push(pid, v++);
      rec.end();
      if (pushed) {
        ++completed;
        useful = true;
      } else {
        rec.begin();
        const bool popped = stack.pop(pid).has_value();
        rec.end();
        if (popped) {
          ++completed;
          useful = true;
        }
      }
      ++completed;  // The paired pop below always completes as an op.
      rec.begin();
      if (stack.pop(pid).has_value()) useful = true;
      rec.end();
    }
    return useful ? completed : 0;
  };
}

template <class Queue, class Rec = NullRecorder>
auto queue_pair_worker(Queue& queue, int pid, Rec rec = {}) {
  return [&queue, pid, rec, v = std::uint64_t{0}]() mutable {
    std::uint64_t completed = 0;
    bool useful = false;
    for (int i = 0; i < kBatch; ++i) {
      rec.begin();
      const bool enqueued = queue.enqueue(pid, v++);
      rec.end();
      if (enqueued) {
        ++completed;
        useful = true;
      } else {
        rec.begin();
        const bool dequeued = queue.dequeue(pid).has_value();
        rec.end();
        if (dequeued) {
          ++completed;
          useful = true;
        }
      }
      ++completed;
      rec.begin();
      if (queue.dequeue(pid).has_value()) useful = true;
      rec.end();
    }
    return useful ? completed : 0;
  };
}

template <class P, class R>
Cell run_treiber_stack(int n, double secs, bool latency = false) {
  using Head = structures::TaggedCasHead<P>;
  using Stack = structures::TreiberStack<P, Head, R>;
  typename P::Env env;
  Stack stack(env, n, std::make_unique<Head>(env, n),
              Stack::partition(n, pool_per_thread<R>(n)));
  if (latency) {
    return measure(n, secs, [&](int pid, util::LatencyHistogram& h) {
      return stack_pair_worker(stack, pid, TscRecorder{&h});
    });
  }
  return measure(n, secs,
                 [&](int pid) { return stack_pair_worker(stack, pid); });
}

// The LlscHead column: the same contended pairs, head-protected by the
// Figure 3 single-CAS LL/SC object (ABA-immune at the word; LL costs up to
// 1+2n steps under contention — that price is what this column measures).
template <class P, class R>
Cell run_treiber_stack_llsc(int n, double secs) {
  using Llsc = core::LlscSingleCas<P>;
  using Head = structures::LlscHead<Llsc>;
  using Stack = structures::TreiberStack<P, Head, R>;
  typename P::Env env;
  // 16 value bits hold every head word (pool_per_thread caps the total pool
  // at 60000 < 2^16) and keep the n + value_bits <= 64 capacity check at
  // n <= 48 — the same thread ceiling run_llsc's Figure 3 object already has.
  Llsc llsc(env, n,
            typename Llsc::Options{.value_bits = 16,
                                   .initial_value = structures::kNullIndex,
                                   .initially_linked = false});
  Stack stack(env, n, std::make_unique<Head>(llsc),
              Stack::partition(n, pool_per_thread<R>(n)));
  return measure(n, secs,
                 [&](int pid) { return stack_pair_worker(stack, pid); });
}

template <class P, class R>
Cell run_treiber_stack_90_10(int n, double secs) {
  using Head = structures::TaggedCasHead<P>;
  using Stack = structures::TreiberStack<P, Head, R>;
  typename P::Env env;
  Stack stack(env, n, std::make_unique<Head>(env, n),
              Stack::partition(n, pool_per_thread<R>(n)));
  return measure(n, secs, [&](int pid) {
    return [&stack, pid, v = std::uint64_t{0}]() mutable {
      std::uint64_t completed = 0;
      bool useful = false;
      for (int i = 0; i < kBatch; ++i) {
        if (i % 10 == 0) {
          if (stack.push(pid, v++)) useful = true;
          ++completed;
        } else {
          // Mostly pops against a mostly-empty stack: the read-dominated
          // common case (head load, no CAS).
          if (stack.pop(pid).has_value()) useful = true;
          ++completed;
        }
      }
      return useful ? completed : 0;
    };
  });
}

template <class P, class R>
Cell run_ms_queue(int n, double secs, bool latency = false) {
  using Queue = structures::MsQueue<P, R>;
  typename P::Env env;
  Queue queue(env, n, pool_per_thread<R>(n));
  if (latency) {
    return measure(n, secs, [&](int pid, util::LatencyHistogram& h) {
      return queue_pair_worker(queue, pid, TscRecorder{&h});
    });
  }
  return measure(n, secs,
                 [&](int pid) { return queue_pair_worker(queue, pid); });
}

// ------------------------------------------------- the sharded dimension

// Per-shard pool slice: the same total node budget as the unsharded cell,
// split across shards (each shard's reclaimer owns a disjoint index space).
template <class R>
int pool_per_thread_per_shard(int n, int shards) {
  const int per_shard = pool_per_thread<R>(n) / shards;
  return per_shard >= 1 ? per_shard : 1;
}

template <class P, class R, int kShards>
Cell run_sharded_stack(int n, double secs) {
  using Head = structures::TaggedCasHead<P>;
  using Stack = structures::ShardedTreiberStack<P, Head, R, kShards>;
  typename P::Env env;
  Stack stack(env, n, Stack::make_heads(env, n),
              pool_per_thread_per_shard<R>(n, kShards));
  return measure(n, secs,
                 [&](int pid) { return stack_pair_worker(stack, pid); });
}

template <class P, class R, int kShards>
Cell run_sharded_queue(int n, double secs) {
  using Queue = structures::ShardedMsQueue<P, R, kShards>;
  typename P::Env env;
  Queue queue(env, n, pool_per_thread_per_shard<R>(n, kShards));
  return measure(n, secs,
                 [&](int pid) { return queue_pair_worker(queue, pid); });
}

// ------------------------------------------------------- the ring family

// Ring cells always record per-op latency. An op is one successful
// transfer: a refused push/pop is retried a bounded number of times
// (yielding periodically — the natural backpressure response), and the
// recorded latency spans first attempt → success, so ring-full stalls land
// in the tail percentiles instead of inflating the op count. A worker
// whose retries all fail returns 0 from the batch and exits — at steady
// state that only happens once its peers have stopped, i.e. at cell end.
constexpr std::size_t kRingCapacity = 1024;
constexpr int kRingRetries = 4096;

template <class TryOp>
bool ring_retry(TryOp&& op) {
  for (int r = 0; r < kRingRetries; ++r) {
    if (op()) return true;
    if ((r & 63) == 63) std::this_thread::yield();
  }
  return false;
}

template <class Ring>
std::function<std::uint64_t()> ring_producer(Ring& ring, int pid,
                                             util::LatencyHistogram& hist) {
  return [&ring, &hist, pid, v = std::uint64_t{0}]() mutable {
    std::uint64_t completed = 0;
    for (int i = 0; i < kBatch; ++i) {
      const std::uint64_t t0 = util::rdtsc();
      if (!ring_retry([&] { return ring.try_push(pid, v); })) break;
      hist.add(util::rdtsc() - t0);
      ++v;
      ++completed;
    }
    return completed;
  };
}

template <class Ring>
std::function<std::uint64_t()> ring_consumer(Ring& ring, int pid,
                                             util::LatencyHistogram& hist) {
  return [&ring, &hist, pid] {
    std::uint64_t completed = 0;
    for (int i = 0; i < kBatch; ++i) {
      const std::uint64_t t0 = util::rdtsc();
      if (!ring_retry([&] { return ring.try_pop(pid).has_value(); })) break;
      hist.add(util::rdtsc() - t0);
      ++completed;
    }
    return completed;
  };
}

// The load-spike producer: a dense kBatch burst, then a quiet gap. The gap
// busy-waits (sleep granularity is far too coarse at this scale), so the
// consumers' percentile spread shows the queueing the bursts cause.
template <class Ring>
std::function<std::uint64_t()> ring_burst_producer(
    Ring& ring, int pid, util::LatencyHistogram& hist) {
  return [&ring, &hist, pid, v = std::uint64_t{0}]() mutable {
    std::uint64_t completed = 0;
    for (int i = 0; i < kBatch; ++i) {
      const std::uint64_t t0 = util::rdtsc();
      if (!ring_retry([&] { return ring.try_push(pid, v); })) break;
      hist.add(util::rdtsc() - t0);
      ++v;
      ++completed;
    }
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(50);
    while (std::chrono::steady_clock::now() < until) {
    }
    return completed;
  };
}

// 1 producer, 1 consumer on the SPSC ring — zero shared RMW per op (the
// machine-checked claim of tests/test_ring.cpp, priced here).
template <class P>
Cell run_ring_spsc(double secs) {
  typename P::Env env;
  structures::SpscRing<P> ring(env, 2, kRingCapacity);
  return measure(2, secs,
                 [&](int pid, util::LatencyHistogram& h)
                     -> std::function<std::uint64_t()> {
                   if (pid == 0) return ring_producer(ring, pid, h);
                   return ring_consumer(ring, pid, h);
                 });
}

// n-1 producers CASing tail, 1 consumer (pid n-1) owning head.
template <class P>
Cell run_ring_mpsc(int n, double secs) {
  typename P::Env env;
  structures::MpscRing<P> ring(env, n, kRingCapacity);
  return measure(n, secs,
                 [&, n](int pid, util::LatencyHistogram& h)
                     -> std::function<std::uint64_t()> {
                   if (pid == n - 1) return ring_consumer(ring, pid, h);
                   return ring_producer(ring, pid, h);
                 });
}

// The Vyukov ring with the thread set split producer/consumer.
template <class P>
Cell run_ring_mpmc(int n, double secs) {
  typename P::Env env;
  structures::MpmcRing<P> ring(env, n, kRingCapacity);
  const int consumers = n / 2;  // >= 1 for every n >= 2.
  return measure(n, secs,
                 [&, n, consumers](int pid, util::LatencyHistogram& h)
                     -> std::function<std::uint64_t()> {
                   if (pid >= n - consumers) return ring_consumer(ring, pid, h);
                   return ring_producer(ring, pid, h);
                 });
}

// 1 producer feeding n-1 consumers (feed fan-out; MPMC ring because the
// consumer side is multi).
template <class P>
Cell run_ring_fanout(int n, double secs) {
  typename P::Env env;
  structures::MpmcRing<P> ring(env, n, kRingCapacity);
  return measure(n, secs,
                 [&](int pid, util::LatencyHistogram& h)
                     -> std::function<std::uint64_t()> {
                   if (pid == 0) return ring_producer(ring, pid, h);
                   return ring_consumer(ring, pid, h);
                 });
}

// The bursty variant of fanout: load spikes, quiet gaps, tail percentiles.
template <class P>
Cell run_ring_burst(int n, double secs) {
  typename P::Env env;
  structures::MpmcRing<P> ring(env, n, kRingCapacity);
  return measure(n, secs,
                 [&](int pid, util::LatencyHistogram& h)
                     -> std::function<std::uint64_t()> {
                   if (pid == 0) return ring_burst_producer(ring, pid, h);
                   return ring_consumer(ring, pid, h);
                 });
}

// feed → handler → gateway over two chained SPSC rings; the middle stage's
// recorded latency is the whole pop-transform-push hop.
template <class P>
Cell run_ring_pipeline(double secs) {
  typename P::Env env;
  structures::SpscRing<P> feed(env, 3, kRingCapacity);
  structures::SpscRing<P> out(env, 3, kRingCapacity);
  return measure(
      3, secs,
      [&](int pid,
          util::LatencyHistogram& h) -> std::function<std::uint64_t()> {
        if (pid == 0) return ring_producer(feed, pid, h);
        if (pid == 2) return ring_consumer(out, pid, h);
        return [&feed, &out, &h, pid] {
          std::uint64_t completed = 0;
          for (int i = 0; i < kBatch; ++i) {
            const std::uint64_t t0 = util::rdtsc();
            std::optional<std::uint64_t> v;
            if (!ring_retry([&] {
                  v = feed.try_pop(pid);
                  return v.has_value();
                })) {
              break;
            }
            if (!ring_retry([&] { return out.try_push(pid, *v + 1); })) break;
            h.add(util::rdtsc() - t0);
            ++completed;
          }
          return completed;
        };
      });
}

// ------------------------------------------------------------ the matrix

int oversub_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(hw == 0 ? 8 : 4 * hw);
}

struct MatrixConfig {
  std::vector<int> thread_counts;
  std::vector<std::string> reclaimers;
  std::vector<int> shard_counts;
  std::vector<std::string> scenarios;  // --scenarios filter; empty = all.
  bool pin = false;
  bool latency = false;  // --latency: percentiles for treiber_stack/ms_queue.
  double secs = 0.2;
};

bool wants(const MatrixConfig& config, const char* reclaimer) {
  for (const auto& r : config.reclaimers) {
    if (r == reclaimer) return true;
  }
  return false;
}

// --scenarios filter: empty selects everything; a token matches a scenario
// by exact name or by ring shorthand ("burst" matches "ring_burst").
bool scenario_wanted(const MatrixConfig& config, const char* scenario) {
  if (config.scenarios.empty()) return true;
  const std::string name = scenario;
  for (const auto& tok : config.scenarios) {
    if (tok == name || "ring_" + tok == name) return true;
  }
  return false;
}

void emit(bench::JsonReport& report, const char* scenario, const char* label,
          const char* orderings, const char* reclaimer, const char* fence,
          int n, int shards, const Cell& cell) {
  const double rate =
      cell.seconds > 0 ? static_cast<double>(cell.ops) / cell.seconds : 0;
  report.add(bench::JsonRecord{scenario, label, orderings, reclaimer, fence, n,
                               shards, cell.ops, cell.seconds, rate,
                               cell.p50_ns, cell.p99_ns, cell.p999_ns});
  std::printf(
      "  %-22s %-8s %-13s %-10s threads=%-3d shards=%-2d %-15s %12.0f ops/s",
      scenario, label, reclaimer, fence, n, shards, orderings, rate);
  if (cell.p99_ns > 0) {
    std::printf("  p50=%.0f p99=%.0f p99.9=%.0f ns", cell.p50_ns, cell.p99_ns,
                cell.p999_ns);
  }
  std::printf("\n");
  std::fflush(stdout);
}

// The sharded cells of one (platform, reclaimer) column: the shard count is
// a compile-time parameter (the probe loops unroll), so the runtime sweep
// dispatches over the instantiated counts.
template <class P, class R>
void run_sharded_cells(const char* label, const char* orderings,
                       const MatrixConfig& config, bench::JsonReport& report) {
  const char* fence = fence_label<P>();
  const bool want_stack = scenario_wanted(config, "sharded_treiber_stack");
  const bool want_queue = scenario_wanted(config, "sharded_ms_queue");
  if (!want_stack && !want_queue) return;
  for (const int shards : config.shard_counts) {
    for (const int n : config.thread_counts) {
      Cell stack_cell, queue_cell;
      switch (shards) {
        case 1:
          stack_cell = run_sharded_stack<P, R, 1>(n, config.secs);
          queue_cell = run_sharded_queue<P, R, 1>(n, config.secs);
          break;
        case 2:
          stack_cell = run_sharded_stack<P, R, 2>(n, config.secs);
          queue_cell = run_sharded_queue<P, R, 2>(n, config.secs);
          break;
        case 4:
          stack_cell = run_sharded_stack<P, R, 4>(n, config.secs);
          queue_cell = run_sharded_queue<P, R, 4>(n, config.secs);
          break;
        case 8:
          stack_cell = run_sharded_stack<P, R, 8>(n, config.secs);
          queue_cell = run_sharded_queue<P, R, 8>(n, config.secs);
          break;
        default:
          std::fprintf(stderr,
                       "shard count %d not instantiated (want 1|2|4|8)\n",
                       shards);
          continue;
      }
      if (want_stack) {
        emit(report, "sharded_treiber_stack", label, orderings, R::kName,
             fence, n, shards, stack_cell);
      }
      if (want_queue) {
        emit(report, "sharded_ms_queue", label, orderings, R::kName, fence, n,
             shards, queue_cell);
      }
    }
  }
}

// One reclaimer column of one platform side.
template <class P, class R>
void run_reclaim_column(const char* label, const char* orderings,
                        const MatrixConfig& config, bench::JsonReport& report) {
  if (!wants(config, R::kName)) return;
  const char* fence = fence_label<P>();
  for (const int n : config.thread_counts) {
    if (scenario_wanted(config, "treiber_stack")) {
      emit(report, "treiber_stack", label, orderings, R::kName, fence, n, 1,
           run_treiber_stack<P, R>(n, config.secs, config.latency));
    }
    if (scenario_wanted(config, "treiber_stack_llsc")) {
      emit(report, "treiber_stack_llsc", label, orderings, R::kName, fence, n,
           1, run_treiber_stack_llsc<P, R>(n, config.secs));
    }
    if (scenario_wanted(config, "ms_queue")) {
      emit(report, "ms_queue", label, orderings, R::kName, fence, n, 1,
           run_ms_queue<P, R>(n, config.secs, config.latency));
    }
    if (scenario_wanted(config, "treiber_stack_90_10")) {
      emit(report, "treiber_stack_90_10", label, orderings, R::kName, fence, n,
           1, run_treiber_stack_90_10<P, R>(n, config.secs));
    }
  }
  if (scenario_wanted(config, "treiber_stack_oversub")) {
    const int oversub = oversub_threads();
    emit(report, "treiber_stack_oversub", label, orderings, R::kName, fence,
         oversub, 1, run_treiber_stack<P, R>(oversub, config.secs));
  }
  run_sharded_cells<P, R>(label, orderings, config, report);
}

// One side of the matrix. Policies are per scenario: LlscPolicy for the
// single-word LL/SC, SeqCstPolicy for every construction whose protocol
// contains a StoreLoad pattern — the Figure 4 announce-array register AND
// the hazard/epoch reclaimers (guard publish → source revalidation, epoch
// announce → global re-read), which acquire/release cannot order —
// StructPolicy for the structures under the guard-free tagged/leaky
// reclaimers (see the orderings note in the header comment and in the
// reclaimer headers).
template <class LlscPolicy, class SeqCstPolicy, class StructPolicy>
void run_side(const char* label, const MatrixConfig& config,
              bench::JsonReport& report) {
  using LlscP = native::NativePlatform<LlscPolicy>;
  using SeqCstP = native::NativePlatform<SeqCstPolicy>;
  using StructP = native::NativePlatform<StructPolicy>;
  for (const int n : config.thread_counts) {
    if (scenario_wanted(config, "llsc_single_cas")) {
      emit(report, "llsc_single_cas", label, orderings_label<LlscPolicy>(),
           "none", "seq_cst", n, 1, run_llsc<LlscP>(n, config.secs));
    }
    if (scenario_wanted(config, "aba_register")) {
      emit(report, "aba_register", label, orderings_label<SeqCstPolicy>(),
           "none", "seq_cst", n, 1, run_aba_register<SeqCstP>(n, config.secs));
    }
  }
  run_reclaim_column<StructP, reclaim::TaggedReclaimer<StructP>>(
      label, orderings_label<StructPolicy>(), config, report);
  run_reclaim_column<StructP, reclaim::LeakyReclaimer<StructP>>(
      label, orderings_label<StructPolicy>(), config, report);
  run_reclaim_column<SeqCstP, reclaim::HazardPointerReclaimer<SeqCstP>>(
      label, orderings_label<SeqCstPolicy>(), config, report);
  run_reclaim_column<SeqCstP, reclaim::CachedHazardPointerReclaimer<SeqCstP>>(
      label, orderings_label<SeqCstPolicy>(), config, report);
  run_reclaim_column<SeqCstP, reclaim::EpochBasedReclaimer<SeqCstP>>(
      label, orderings_label<SeqCstPolicy>(), config, report);
  run_reclaim_column<SeqCstP, reclaim::DeferredEpochReclaimer<SeqCstP>>(
      label, orderings_label<SeqCstPolicy>(), config, report);
}

// The retire-batch-size axis of the deferred-epoch pipeline: the contended
// stack cell re-run with the batch override swept across the LocalRing
// sizes, so the amortization curve (one flush — one shared stamp read plus
// one advance — per K retires) is measurable instead of asserted. Cells are
// keyed by reclaimer name "epoch_deferred_b<K>"; only the most contended
// thread count runs, where the flush cadence actually shows.
template <class P, std::size_t K>
void run_deferred_batch_cell(const char* label, const char* orderings,
                             const MatrixConfig& config,
                             bench::JsonReport& report) {
  if (!wants(config, "epoch_deferred")) return;
  if (!scenario_wanted(config, "treiber_stack")) return;
  using R = reclaim::EpochBasedReclaimer<P, reclaim::DeferredAnnounce, K>;
  char name[32];
  std::snprintf(name, sizeof(name), "epoch_deferred_b%zu", K);
  const int n = *std::max_element(config.thread_counts.begin(),
                                  config.thread_counts.end());
  emit(report, "treiber_stack", label, orderings, name, fence_label<P>(), n, 1,
       run_treiber_stack<P, R>(n, config.secs));
}

template <class P>
void run_deferred_batch_axis(const char* label, const char* orderings,
                             const MatrixConfig& config,
                             bench::JsonReport& report) {
  run_deferred_batch_cell<P, 1>(label, orderings, config, report);
  run_deferred_batch_cell<P, 4>(label, orderings, config, report);
  run_deferred_batch_cell<P, 16>(label, orderings, config, report);
  run_deferred_batch_cell<P, 64>(label, orderings, config, report);
  run_deferred_batch_cell<P, 256>(label, orderings, config, report);
}

// The ring cells of one platform side. Fixed-role scenarios (spsc: 2
// threads, pipeline: 3) run once; the role-asymmetric sweeps need at least
// one thread per side, so n=1 entries are skipped.
template <class P>
void run_ring_cells(const char* label, const char* orderings,
                    const MatrixConfig& config, bench::JsonReport& report) {
  if (scenario_wanted(config, "ring_spsc")) {
    emit(report, "ring_spsc", label, orderings, "none", "seq_cst", 2, 1,
         run_ring_spsc<P>(config.secs));
  }
  for (const int n : config.thread_counts) {
    if (n < 2) continue;
    if (scenario_wanted(config, "ring_mpsc")) {
      emit(report, "ring_mpsc", label, orderings, "none", "seq_cst", n, 1,
           run_ring_mpsc<P>(n, config.secs));
    }
    if (scenario_wanted(config, "ring_mpmc")) {
      emit(report, "ring_mpmc", label, orderings, "none", "seq_cst", n, 1,
           run_ring_mpmc<P>(n, config.secs));
    }
    if (scenario_wanted(config, "ring_fanout")) {
      emit(report, "ring_fanout", label, orderings, "none", "seq_cst", n, 1,
           run_ring_fanout<P>(n, config.secs));
    }
    if (scenario_wanted(config, "ring_burst")) {
      emit(report, "ring_burst", label, orderings, "none", "seq_cst", n, 1,
           run_ring_burst<P>(n, config.secs));
    }
  }
  if (scenario_wanted(config, "ring_pipeline")) {
    emit(report, "ring_pipeline", label, orderings, "none", "seq_cst", 3, 1,
         run_ring_pipeline<P>(config.secs));
  }
}

double find_rate(const bench::JsonReport& report, const std::string& scenario,
                 const std::string& platform, const std::string& reclaimer,
                 const std::string& fence, int threads, int shards) {
  for (const auto& r : report.records()) {
    if (r.scenario == scenario && r.platform == platform &&
        r.reclaimer == reclaimer && r.fence == fence && r.threads == threads &&
        r.shards == shards) {
      return r.ops_per_sec;
    }
  }
  return 0;
}

std::vector<std::string> parse_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(pos, comma == std::string::npos
                                                ? std::string::npos
                                                : comma - pos);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<int> parse_ints(const std::string& csv) {
  std::vector<int> out;
  for (const auto& tok : parse_csv(csv)) {
    const int n = std::atoi(tok.c_str());
    if (n >= 1) out.push_back(n);
  }
  return out;
}

// Strict --shards parsing: every token must be a positive integer, so a
// typo fails the run instead of silently shrinking the sweep.
bool parse_shard_counts(const std::string& csv, std::vector<int>* out) {
  out->clear();
  for (const auto& tok : parse_csv(csv)) {
    char* end = nullptr;
    const long n = std::strtol(tok.c_str(), &end, 10);
    if (*end != '\0' || n < 1) {
      std::fprintf(stderr, "invalid shard count '%s' (want e.g. 1,2,4,8)\n",
                   tok.c_str());
      return false;
    }
    out->push_back(static_cast<int>(n));
  }
  if (out->empty()) std::fprintf(stderr, "no shard counts selected\n");
  return !out->empty();
}

std::vector<std::string> parse_reclaimers(const std::string& csv) {
  std::vector<std::string> out;
  for (const auto& tok : parse_csv(csv)) {
    if (tok == "tagged" || tok == "leaky" || tok == "hazard" ||
        tok == "hazard_cached" || tok == "epoch" || tok == "epoch_deferred") {
      out.push_back(tok);
    } else {
      std::fprintf(stderr,
                   "unknown reclaimer '%s' "
                   "(want tagged|leaky|hazard|hazard_cached|epoch|"
                   "epoch_deferred)\n",
                   tok.c_str());
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  MatrixConfig config;
  config.thread_counts = {1, 2, 4};
  config.reclaimers = {"tagged",       "leaky", "hazard",
                       "hazard_cached", "epoch", "epoch_deferred"};
  config.shard_counts = {1, 4};
  std::string out_path = "BENCH_native.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--benchmark_min_time=", 0) == 0) {
      // Accepts google-benchmark spellings "0.01" and "0.01s".
      config.secs = std::atof(arg.c_str() + std::strlen("--benchmark_min_time="));
      if (config.secs <= 0) config.secs = 0.01;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--out="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      config.thread_counts = parse_ints(arg.substr(std::strlen("--threads=")));
      if (config.thread_counts.empty()) config.thread_counts = {1, 2, 4};
    } else if (arg.rfind("--reclaimers=", 0) == 0) {
      config.reclaimers = parse_reclaimers(arg.substr(std::strlen("--reclaimers=")));
      if (config.reclaimers.empty()) {
        std::fprintf(stderr, "no valid reclaimers selected\n");
        return 2;
      }
    } else if (arg.rfind("--shards=", 0) == 0) {
      if (!parse_shard_counts(arg.substr(std::strlen("--shards=")),
                              &config.shard_counts)) {
        return 2;
      }
    } else if (arg == "--pin") {
      config.pin = true;
    } else if (arg == "--latency") {
      config.latency = true;
    } else if (arg.rfind("--scenarios=", 0) == 0) {
      config.scenarios = parse_csv(arg.substr(std::strlen("--scenarios=")));
      if (config.scenarios.empty()) {
        std::fprintf(stderr, "no scenarios selected\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--benchmark_min_time=SECS] [--out=PATH] "
                   "[--threads=1,2,4] "
                   "[--reclaimers=tagged,leaky,hazard,hazard_cached,epoch,"
                   "epoch_deferred] "
                   "[--shards=1,2,4,8] [--pin] [--latency] "
                   "[--scenarios=name,name]\n",
                   argv[0]);
      return 2;
    }
  }

  g_pin.requested = config.pin;
  g_pin.cpus = online_cpus();

  bench::JsonReport report("native_throughput_matrix");
  report.add_context("hardware_concurrency",
                     std::to_string(std::thread::hardware_concurrency()));
  report.add_context("min_seconds_per_cell", std::to_string(config.secs));
  report.add_context("oversub_threads", std::to_string(oversub_threads()));
  report.add_context("online_cores", std::to_string(g_pin.cpus.size()));
  report.add_context("pin", config.pin
                                ? "round_robin"  // Auto-off per cell when
                                                 // threads > online cores.
                                : "off");
  report.add_context("asymmetric_fence_scheme",
                     util::AsymmetricFence::scheme_name());
  report.add_context("latency_legacy_cells", config.latency ? "on" : "off");
#ifdef ABA_RELAXED_ORDERINGS
  report.add_context("relaxed_orderings_option", "on");
#else
  report.add_context("relaxed_orderings_option", "off");
#endif
#ifdef NDEBUG
  report.add_context("build", "NDEBUG");
#else
  report.add_context("build", "debug");
#endif

  std::printf(
      "E9  native throughput matrix "
      "(counted vs fast × reclaimers × shards × fences)\n");
  run_side<native::Counted, native::Counted, native::Counted>("counted", config,
                                                              report);
  run_side<native::FastRelaxed, native::Fast, native::FastRelaxed>(
      "fast", config, report);

  // The fence dimension: the hazard-family columns again on the asymmetric
  // platform (plain release publish + compiler barrier; the scan carries
  // the membarrier heavy side). Same "fast" platform label — the fence
  // field is what distinguishes the cells. Skipped entirely when the
  // asymmetric fast side is compiled out (TSan, non-Linux,
  // -DABA_ASYMMETRIC_FENCE=OFF): there the fallback runs seq_cst fences
  // on both sides, so the cells would mislabel a symmetric scheme as
  // "asymmetric" — and labelling them "seq_cst" instead would collide
  // with the real seq_cst cells in bench_compare's key space.
  if constexpr (util::AsymmetricFence::kCompiledAsymmetric) {
    using AsymP = native::NativePlatform<native::FastAsymmetric>;
    const char* ord = orderings_label<native::FastAsymmetric>();
    run_reclaim_column<AsymP, reclaim::HazardPointerReclaimer<AsymP>>(
        "fast", ord, config, report);
    run_reclaim_column<AsymP, reclaim::CachedHazardPointerReclaimer<AsymP>>(
        "fast", ord, config, report);
    // Deferred-announce epoch is the ONLY epoch variant admitted on the
    // asymmetric platform (epoch.h static-rejects the eager protocol
    // there): a relaxed announce + compiler barrier on the op side, the
    // membarrier heavy side confined to try_advance.
    run_reclaim_column<AsymP, reclaim::DeferredEpochReclaimer<AsymP>>(
        "fast", ord, config, report);
    run_deferred_batch_axis<AsymP>("fast", ord, config, report);
  }

  // The retire-batch-size axis on the symmetric fast side as well, so the
  // curve exists even where the asymmetric scheme is compiled out.
  run_deferred_batch_axis<native::NativePlatform<native::Fast>>(
      "fast", orderings_label<native::Fast>(), config, report);

  // The ring family on both platform sides: SPSC's zero-RMW fast path vs
  // the MPSC/MPMC per-op CAS price, in throughput AND latency percentiles.
  run_ring_cells<native::NativePlatform<native::Counted>>(
      "counted", orderings_label<native::Counted>(), config, report);
  run_ring_cells<native::NativePlatform<native::FastRelaxed>>(
      "fast", orderings_label<native::FastRelaxed>(), config, report);

  std::printf("\n  fast/counted speedup:\n");
  for (const char* scenario : {"llsc_single_cas", "aba_register"}) {
    for (const int n : config.thread_counts) {
      const double counted =
          find_rate(report, scenario, "counted", "none", "seq_cst", n, 1);
      const double fast =
          find_rate(report, scenario, "fast", "none", "seq_cst", n, 1);
      if (counted > 0) {
        std::printf("  %-22s %-7s threads=%d  %.2fx\n", scenario, "none", n,
                    fast / counted);
      }
    }
  }
  for (const char* scenario :
       {"treiber_stack", "treiber_stack_llsc", "ms_queue",
        "treiber_stack_90_10"}) {
    for (const auto& reclaimer : config.reclaimers) {
      for (const int n : config.thread_counts) {
        const double counted = find_rate(report, scenario, "counted",
                                         reclaimer, "seq_cst", n, 1);
        const double fast =
            find_rate(report, scenario, "fast", reclaimer, "seq_cst", n, 1);
        if (counted > 0) {
          std::printf("  %-22s %-7s threads=%d  %.2fx\n", scenario,
                      reclaimer.c_str(), n, fast / counted);
        }
      }
    }
  }

  // The headline of this matrix: the hazard-family tax relative to tagged
  // on the fast side, per fence scheme. Guard caching + asymmetric fences
  // exist to drive these ratios toward 1.0.
  if (wants(config, "tagged")) {
    std::printf("\n  hazard-family cost vs tagged (fast side, contended):\n");
    for (const char* scenario : {"treiber_stack", "treiber_stack_90_10"}) {
      for (const int n : config.thread_counts) {
        const double tagged =
            find_rate(report, scenario, "fast", "tagged", "seq_cst", n, 1);
        if (tagged <= 0) continue;
        for (const char* reclaimer : {"hazard", "hazard_cached"}) {
          if (!wants(config, reclaimer)) continue;
          for (const char* fence : {"seq_cst", "asymmetric"}) {
            const double rate =
                find_rate(report, scenario, "fast", reclaimer, fence, n, 1);
            if (rate > 0) {
              std::printf("  %-22s %-14s %-11s threads=%d  %.2fx of tagged\n",
                          scenario, reclaimer, fence, n, rate / tagged);
            }
          }
        }
      }
    }
  }

  // The sharding win itself: each swept shard count vs the 1-shard cell of
  // the same (structure, reclaimer, threads) on the fast side.
  if (config.shard_counts.size() > 1) {
    std::printf("\n  sharding speedup (fast side, vs shards=1):\n");
    for (const char* scenario : {"sharded_treiber_stack", "sharded_ms_queue"}) {
      for (const auto& reclaimer : config.reclaimers) {
        for (const int n : config.thread_counts) {
          const double base = find_rate(report, scenario, "fast", reclaimer,
                                        "seq_cst", n, 1);
          if (base <= 0) continue;
          for (const int shards : config.shard_counts) {
            if (shards == 1) continue;
            const double sharded = find_rate(report, scenario, "fast",
                                             reclaimer, "seq_cst", n, shards);
            if (sharded > 0) {
              std::printf("  %-22s %-7s threads=%d shards=%d  %.2fx\n",
                          scenario, reclaimer.c_str(), n, shards,
                          sharded / base);
            }
          }
        }
      }
    }
  }

  // The ring latency headline: the SPSC↔MPMC percentile gap on the fast
  // side is the prevention price measured on the latency axis.
  std::printf("\n  ring latency (fast side):\n");
  for (const auto& r : report.records()) {
    if (r.platform == "fast" && r.scenario.rfind("ring_", 0) == 0 &&
        r.p99_ns > 0) {
      std::printf("  %-22s threads=%-3d p50=%.0fns p99=%.0fns p99.9=%.0fns\n",
                  r.scenario.c_str(), r.threads, r.p50_ns, r.p99_ns,
                  r.p999_ns);
    }
  }

  if (!report.write_file(out_path)) return 1;
  std::printf("\n  wrote %s (%zu records)\n", out_path.c_str(),
              report.records().size());
  return 0;
}
