// Minimal JSON reporter for the perf-trajectory files (BENCH_*.json).
//
// Successive PRs regress against these files: each bench binary that feeds
// the trajectory appends structured records (scenario, platform policy,
// thread count, measured throughput) and writes one self-contained JSON
// document. Deliberately dependency-free — a hand-rolled emitter is ~100
// lines and keeps the bench pipeline buildable even where google-benchmark
// is absent.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace aba::bench {

// One measured cell of a scenario sweep.
struct JsonRecord {
  std::string scenario;   // e.g. "treiber_stack"
  std::string platform;   // "counted" | "fast"
  std::string orderings;  // "seq_cst" | "acquire_release"
  std::string reclaimer;  // "tagged" | "leaky" | "hazard" | "hazard_cached"
                          //   | "epoch" | "none"
  std::string fence = "seq_cst";  // StoreLoad scheme: "seq_cst" (orderings
                                  // carry the edge) | "asymmetric"
                                  // (FastAsymmetric + util/asymmetric_fence.h)
  int threads = 0;
  int shards = 1;         // shard count (1 for the unsharded scenarios)
  std::uint64_t ops = 0;      // completed operations across all threads
  double seconds = 0.0;       // measured wall time
  double ops_per_sec = 0.0;   // ops / seconds
  // Per-op latency percentiles in nanoseconds (schema 2). Zero means the
  // cell did not record latency (throughput-only cells stay comparable
  // against schema-1 baselines); tools/bench_compare.py gates on p99 only
  // when BOTH sides carry a nonzero value.
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
};

// Version of the document layout this emitter writes. Schema 2 added the
// per-cell latency percentile fields; readers accept schema-1 documents
// (no percentile fields) read-only.
inline constexpr int kBenchSchemaVersion = 2;

// Escapes a string for embedding in a JSON string literal.
std::string escape_json(const std::string& s);

// Accumulates records plus free-form context (host facts, build flags) and
// serializes them as one JSON document:
//   { "bench": ..., "context": {...}, "results": [ {...}, ... ] }
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name);

  void add_context(const std::string& key, const std::string& value);
  void add(JsonRecord record);

  const std::vector<JsonRecord>& records() const { return records_; }

  std::string to_json() const;
  // Returns false (and prints to stderr) if the file cannot be written.
  bool write_file(const std::string& path) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<JsonRecord> records_;
};

}  // namespace aba::bench
