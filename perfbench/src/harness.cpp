#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <exception>
#include <latch>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::vector<int> online_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

int pin_cpu(int pid) {
  static const std::vector<int> cpus = online_cpus();
  if (cpus.empty()) return -1;
  return cpus[static_cast<std::size_t>(pid) % cpus.size()];
}

namespace {

void pin_self(int pid) {
  const int cpu = pin_cpu(pid);
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// n pinned worker threads that park on a Gate. The constructor returns once
// every worker is pinned and parked, which is where set-up ends. Joins on
// destruction, so the shared state a worker uses must outlive the crew.
class Crew {
 public:
  Crew(int n, const Gate& gate, std::function<void(int)> body);
  ~Crew() { join(); }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  void join();
  // What the first worker body to throw threw; empty if none did.
  const std::string& error() const { return error_; }

 private:
  std::vector<std::thread> threads_;
  std::latch ready_;
  std::string error_;
  std::atomic<bool> has_error_{false};
};

Crew::Crew(int n, const Gate& gate, std::function<void(int)> body)
    : ready_(n) {
  threads_.reserve(static_cast<std::size_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    threads_.emplace_back([this, pid, &gate, body] {
      pin_self(pid);
      ready_.count_down();
      gate.wait_open();
      try {
        body(pid);
      } catch (const std::exception& e) {
        if (!has_error_.exchange(true)) error_ = e.what();
      } catch (...) {
        if (!has_error_.exchange(true)) error_ = "unknown exception";
      }
    });
  }
  ready_.wait();
}

void Crew::join() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace

std::uint64_t Gate::snapshot() const {
  std::uint64_t total = 0;
  for (const auto& p : progress_) total += p.value.load(std::memory_order_relaxed);
  return total;
}

Gate::Window Gate::run(double warmup_s, double window_s) {
  phase_.store(kWarmup, std::memory_order_release);
  phase_.notify_all();
  sleep_seconds(warmup_s);
  phase_.store(kMeasure, std::memory_order_relaxed);
  const auto t0 = SteadyClock::now();
  const std::uint64_t c0 = snapshot();
  sleep_seconds(window_s);
  const std::uint64_t c1 = snapshot();
  Window w;
  w.seconds = seconds_since(t0);
  w.calls = c1 - c0;
  phase_.store(kStop, std::memory_order_relaxed);
  return w;
}

double run_crew(Gate& gate, SteadyClock::time_point t0, double window_s,
                Gate::Window& window, std::function<void(int)> body) {
  Crew crew(kThreads, gate, std::move(body));
  const double setup_s = seconds_since(t0);
  if (window_s > 0) {
    window = gate.run(warmup_for(window_s), window_s);
  } else {
    gate.release_stopped();
  }
  crew.join();
  if (!crew.error().empty()) throw std::runtime_error(crew.error());
  return setup_s;
}

void run_rounds(const Options& o,
                const std::function<RoundResult(int, double)>& run_round,
                Values& out, Report& report) {
  std::vector<double> mops, setup;
  Histogram latency;
  std::uint64_t calls = 0;
  double seconds = 0;
  for (int round = 0; round < kRounds; ++round) {
    const RoundResult r = run_round(round, o.seconds / kRounds);
    calls += r.window.calls;
    seconds += r.window.seconds;
    latency.merge(r.latency);
    mops.push_back(r.window.mops());
    setup.push_back(r.setup_s);
  }
  for (int cycle = 0; cycle < kSetupOnlyCycles; ++cycle) {
    setup.push_back(run_round(kRounds + cycle, 0).setup_s);
  }
  out["throughput_mops"] = static_cast<double>(calls) / seconds / 1e6;
  out["op_p50_ns"] = ticks_to_ns(latency.quantile(0.50));
  out["op_p99_ns"] = ticks_to_ns(latency.quantile(0.99));
  out["ok_share"] = 1.0 - static_cast<double>(report.failed()) /
                              static_cast<double>(report.attempted());
  out["setup_s"] = median(setup);
  out["rss_peak_mib"] = rss_peak_mib();
  report.record_num("latency_samples", static_cast<double>(latency.total()));
  report.record("round_mops", json_list(mops));
  report.record("setup_s_all", json_list(setup));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double rss_peak_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // Only after a failed run.
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ", ";
    s += json_number(v[i]);
  }
  return s + "]";
}

void Report::record_str(const std::string& key, const std::string& s) {
  record(key, json_string(s));
}

void Report::record_num(const std::string& key, double v) {
  record(key, json_number(v));
}

void Report::fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: output check failed: %s\n", why.c_str());
  failures_.push_back(why);
}

void Report::print(std::FILE* out) const {
  std::string line = "{\"record\": {";
  for (std::size_t i = 0; i < record_.size(); ++i) {
    if (i != 0) line += ", ";
    line += json_string(record_[i].first) + ": " + record_[i].second;
  }
  line += ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i != 0) line += ", ";
    line += json_string(failures_[i]);
  }
  line += "]}}\n";
  std::fputs(line.c_str(), out);

  std::string result = "{\"correct\": ";
  result += correct() ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted_);
  result += ", \"failed\": " + std::to_string(failed_);
  result += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) result += ", ";
    result += json_string(metrics_[i].name) + ": {\"value\": " +
              json_number(metrics_[i].value) +
              ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  result += "}}\n";
  std::fputs(result.c_str(), out);
  std::fflush(out);
}

bool write_spans(const std::string& path, const std::string& pass,
                 const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  const double ns = aba::util::tick_ns();
  for (std::size_t tid = 0; tid < buffers.size(); ++tid) {
    const auto& spans = buffers[tid]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"pass\": %s, \"tid\": %zu, \"span\": %zu, \"name\": "
                   "\"%s\", \"parent\": %d, \"op\": %llu, \"start_ns\": %s, "
                   "\"end_ns\": %s}\n",
                   json_string(pass).c_str(), tid, i, s.name, s.parent,
                   static_cast<unsigned long long>(s.op),
                   json_number(static_cast<double>(s.start) * ns).c_str(),
                   json_number(static_cast<double>(s.end) * ns).c_str());
    }
  }
  return std::fclose(f) == 0;
}

void add_overheads(const OverheadPasses& p, Values& out) {
  const double sampled = median(p.sampled);
  out["trace.overhead_share"] = 1.0 - median(p.traced) / sampled;
  out["trace.sampling_overhead_share"] = 1.0 - sampled / median(p.unsampled);
}

}  // namespace perfbench
