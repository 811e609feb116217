// Shared machinery of the perfbench workloads: options, pinned worker crews
// with a start gate, the 1-in-k call sampler, an interpolating latency
// histogram, trace spans and the result report.
//
// Everything here is the benchmark's own code. The library under test is
// reached only through its public headers, from the workload files.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "metrics.h"
#include "util/histogram.h"

namespace perfbench {

// Alignment of per-thread benchmark state written on the hot path: two
// cache lines, because the adjacent-line prefetcher moves 128-byte pairs.
// Without it the ledgers of neighbouring threads false-share and the
// measured rates depend on where the heap happened to place them.
inline constexpr std::size_t kThreadStateAlign = 128;

// Worker threads per workload, one per core on the 4-core machines the
// workloads are defined for; with fewer cores the crew is pinned
// round-robin (recorded in the pin map).
inline constexpr int kThreads = 4;

// Every sampled timer times one call in kSampleEvery. A prime, so the sample
// never locks onto a power-of-two cadence inside the library (the hazard
// scan every 256 retires, the epoch batch of 4, the push;pop alternation).
inline constexpr std::uint32_t kSampleEvery = 61;

// Timed rounds per untraced run; each round builds its structure afresh.
// Where the heap places the nodes and the reclaimer's per-thread lists set
// a stack_churn round's latency p50 (on FastAsymmetric) anywhere from about
// 150 to 270 ns, drawn anew each round (a structure kept across rounds
// drifted instead), so a run pools many short rounds.
inline constexpr int kRounds = 100;
// Extra build-spawn-join cycles that only feed the setup_s median.
inline constexpr int kSetupOnlyCycles = 10;

// A traced run interleaves kTracePasses triples of passes (sampled as in an
// untraced run, traced, sampling off), each timing a window of --seconds /
// (4 * kTracePasses); the Counted pass and each ladder get --seconds / 10.
inline constexpr int kTracePasses = 5;
inline double trace_window(double seconds) { return seconds / (4 * kTracePasses); }
inline double ladder_window(double seconds) { return seconds / 10; }

// Untimed warm-up before each window: caches, free lists and the backoff
// state settle within well under 0.1 s.
inline double warmup_for(double window_s) { return std::min(0.2 * window_s, 0.1); }

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  // Deliberate output faults for the self-tests: "drop_value" loses one
  // popped value from the ledger, "suppress_flag" hides one owed flag.
  std::string inject;
  std::string trace_out;      // Where the traced run writes its spans.
  std::string source_digest;  // Recorded as given.
};

// ------------------------------------------------------------------ values

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The value thread `pid` pushes as its `seq`-th put in round `round`: a
// function of the seed alone, so a seed fixes every input.
inline std::uint64_t value_of(std::uint64_t seed, int round, int pid,
                              std::uint64_t seq) {
  return mix64(mix64(seed ^ (static_cast<std::uint64_t>(round) << 40)) ^
               (static_cast<std::uint64_t>(pid) << 56) ^ seq);
}

// Count plus 64-bit wrapping sum of hashed values: the conservation ledger.
struct Ledger {
  std::uint64_t count = 0;
  std::uint64_t hash_sum = 0;

  void add(std::uint64_t value) {
    ++count;
    hash_sum += mix64(value ^ 0x5bd1e9955bd1e995ull);
  }
  Ledger& operator+=(const Ledger& o) {
    count += o.count;
    hash_sum += o.hash_sum;
    return *this;
  }
  bool operator==(const Ledger&) const = default;
};

// ---------------------------------------------------------------- sampling

// How a pass instruments its calls. kPlain, with sampling off, is the
// program the traced run measures the sampler's own cost against.
enum class Mode { kPlain, kSampled, kTraced };

// Fixed 1-in-k call sampler: a thread-private countdown, no shared state.
class Sampler {
 public:
  bool due() {
    if (--left_ != 0) return false;
    left_ = kSampleEvery;
    return true;
  }
  // Whether one of the next `calls` calls will be sampled.
  bool due_within(std::uint32_t calls) const { return left_ <= calls; }

 private:
  std::uint32_t left_ = kSampleEvery;
};

// Log-linear histogram of tick counts with 128 sub-buckets per octave
// (under 1% bucket width) and quantiles interpolated inside the bucket.
// Constant memory, so sampling at any rate costs no resident set.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;
  static constexpr std::size_t kBuckets = kSub * (65 - kSubBits);

  void add(std::uint64_t v) {
    ++counts_[bucket_of(v)];
    ++total_;
  }
  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  std::uint64_t total() const { return total_; }

  // Quantile q in [0, 1] in ticks; 0 for an empty histogram.
  double quantile(double q) const {
    if (total_ == 0) return 0;
    const double rank = q * static_cast<double>(total_ - 1);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(below + counts_[i]) > rank) {
        const double within = (rank - static_cast<double>(below) + 0.5) /
                              static_cast<double>(counts_[i]);
        return static_cast<double>(lower(i)) +
               within * static_cast<double>(width(i));
      }
      below += counts_[i];
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  static std::size_t bucket_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned octave = 63u - static_cast<unsigned>(std::countl_zero(v));
    const std::uint64_t sub = (v >> (octave - kSubBits)) & (kSub - 1);
    return (octave - kSubBits + 1) * kSub + sub;
  }
  static std::uint64_t lower(std::size_t b) {
    if (b < kSub) return b;
    const unsigned octave = static_cast<unsigned>(b / kSub - 1) + kSubBits;
    return (1ull << octave) | ((b % kSub) << (octave - kSubBits));
  }
  static std::uint64_t width(std::size_t b) {
    if (b < kSub) return 1;
    return 1ull << (static_cast<unsigned>(b / kSub - 1));
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t total_ = 0;
};

inline double ticks_to_ns(double ticks) { return ticks * aba::util::tick_ns(); }

// Times one call into the library on the sampled path.
template <class Fn>
auto timed(Histogram& h, Fn&& fn) {
  const std::uint64_t t0 = aba::util::rdtsc();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    h.add(aba::util::rdtsc() - t0);
  } else {
    auto result = fn();
    h.add(aba::util::rdtsc() - t0);
    return result;
  }
}

// ------------------------------------------------------------------- spans

// One traced call: name, start and end (ticks), the span that caused it
// (-1 for a root) and the benchmark-level op it belongs to.
struct Span {
  const char* name;
  std::int32_t parent;
  std::uint64_t op;
  std::uint64_t start;
  std::uint64_t end;
};

// Preallocated per-thread span store; spans past capacity are counted, not
// kept, so tracing never allocates on the hot path.
class SpanBuffer {
 public:
  static constexpr std::size_t kCapacity = 2048;

  SpanBuffer() { spans_.reserve(kCapacity); }

  // Starts a span; returns its index, or -1 when the buffer is full.
  std::int32_t open(const char* name, std::int32_t parent, std::uint64_t op,
                    std::uint64_t start) {
    if (spans_.size() == kCapacity) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, parent, op, start, start});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t span, std::uint64_t end) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end = end;
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// Appends every thread's spans as JSON lines. Returns false on I/O failure.
bool write_spans(const std::string& path, const std::string& pass,
                 const std::vector<const SpanBuffer*>& buffers);

// -------------------------------------------------------------- crew, gate

// Online CPUs of this process, in order.
std::vector<int> online_cpus();
// The CPU worker `pid` is pinned to.
int pin_cpu(int pid);

// Start gate and progress board shared by one crew. Workers park until the
// gate opens, publish their completed-call count after every unit of work,
// and leave when it reaches kStop. Only the timed window counts: the
// coordinator snapshots the board when the warm-up ends and when the window
// ends.
class Gate {
 public:
  enum Phase : int { kParked, kWarmup, kMeasure, kStop };

  explicit Gate(int n) : progress_(static_cast<std::size_t>(n)) {}

  void wait_open() const { phase_.wait(kParked, std::memory_order_acquire); }
  bool stopped() const {
    return phase_.load(std::memory_order_relaxed) == kStop;
  }
  bool measuring() const {
    return phase_.load(std::memory_order_relaxed) == kMeasure;
  }
  void publish(int pid, std::uint64_t calls) {
    progress_[static_cast<std::size_t>(pid)].value.store(
        calls, std::memory_order_relaxed);
  }

  struct Window {
    double seconds = 0;
    std::uint64_t calls = 0;
    double mops() const { return static_cast<double>(calls) / seconds / 1e6; }
  };

  // Opens the gate, lets the crew warm up, times one window, then stops it.
  Window run(double warmup_s, double window_s);
  // Opens the gate straight into kStop: a crew that only measured set-up.
  void release_stopped() {
    phase_.store(kStop, std::memory_order_release);
    phase_.notify_all();
  }

 private:
  std::uint64_t snapshot() const;

  struct alignas(kThreadStateAlign) Progress {
    std::atomic<std::uint64_t> value{0};
  };
  std::atomic<int> phase_{kParked};
  std::vector<Progress> progress_;
};

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

// Spawns a pinned crew running body(pid). Set-up ends, measured from t0,
// when every worker is parked at the gate. Then times one window after a
// warm-up (none when window_s is 0), joins, and rethrows a worker's
// exception. Returns the set-up time.
double run_crew(Gate& gate, SteadyClock::time_point t0, double window_s,
                Gate::Window& window, std::function<void(int)> body);

// Median of a non-empty sample (mean of the middle two for even sizes).
double median(std::vector<double> v);

// Peak resident set of this process so far, in MiB.
double rss_peak_mib();

// ------------------------------------------------------------------ report

// The result of one invocation. Metrics keep insertion order; `record`
// collects the provenance fields printed on the line before the result.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  // Adds a raw JSON value under `key` in the record line.
  void record(const std::string& key, const std::string& json) {
    record_.emplace_back(key, json);
  }
  void record_str(const std::string& key, const std::string& s);
  void record_num(const std::string& key, double v);
  // A failed output check: the run is incorrect and exits non-zero.
  void fail(const std::string& why);
  bool correct() const { return failures_.empty(); }

  void count_calls(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void print(std::FILE* out) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> record_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string json_string(const std::string& s);
std::string json_number(double v);
std::string json_list(const std::vector<double>& v);

// What one timed round gives the end-to-end metrics.
struct RoundResult {
  double setup_s = 0;
  Gate::Window window;
  Histogram latency;  // Every sampled call.
};

// --trace 0 on every workload: kRounds timed rounds of --seconds / kRounds,
// then kSetupOnlyCycles rounds with no window that only time set-up.
// Throughput is all windows' calls over their summed time and the latency
// percentiles pool every round's samples: on stack_churn both spread less
// between runs than medians over rounds did. setup_s is the median set-up.
// run_round(round, window_s) builds, runs and checks one round, and counts
// its calls in `report`.
void run_rounds(const Options& o,
                const std::function<RoundResult(int, double)>& run_round,
                Values& out, Report& report);

// Throughputs (Mops/s) of the interleaved passes a traced run makes: the
// untraced sampled pass (what end-to-end runs measure), the traced pass and
// a pass with latency sampling off. Adds trace.overhead_share and
// trace.sampling_overhead_share, each the relative throughput loss.
struct OverheadPasses {
  std::vector<double> sampled, traced, unsampled;
};
void add_overheads(const OverheadPasses& p, Values& out);

}  // namespace perfbench
