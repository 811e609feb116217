// queue_sharded: 4 threads run enqueue;dequeue pairs on a 4-shard
// ShardedMsQueue with deferred-announce epoch reclamation on
// NativePlatform<Fast> (seq_cst). Sharding spreads contention, so backoff
// and the heavy fence do little; the work moves to routing and stealing
// and to the epoch announce/advance. A change aimed at stack_churn should
// leave it flat.
#include <optional>

#include "native/native_platform.h"
#include "pairs.h"
#include "reclaim/epoch.h"
#include "structures/sharded.h"
#include "workloads.h"

namespace perfbench {
namespace {

template <class P>
class QueueInst {
 public:
  static constexpr int kShards = 4;
  static_assert(kShards <= kMaxShards);
  using R = aba::reclaim::DeferredEpochReclaimer<P>;
  using Queue = aba::structures::ShardedMsQueue<P, R, kShards>;
  static constexpr const char* kPut = "enqueue";
  static constexpr const char* kTake = "dequeue";

  // The E9 sharded cell's budget: the unsharded pool split across shards.
  explicit QueueInst(int n) : queue_(env_, n, kPoolPerThread / kShards) {}

  bool put(int p, std::uint64_t v) { return queue_.enqueue(p, v); }
  std::optional<std::uint64_t> take(int p) { return queue_.dequeue(p); }
  void detach(int p) { queue_.detach(p); }
  int shard_of(int p) const { return queue_.last_shard(p); }
  void attach_probes(aba::structures::ContentionProbe* probes) {
    for (int s = 0; s < kShards; ++s) {
      queue_.shard(s).set_contention_probe(&probes[s]);
    }
  }
  aba::reclaim::ReclaimStats stats() const { return queue_.reclaim_stats(); }

 private:
  typename P::Env env_;
  Queue queue_;
};

struct QueueSharded {
  using P = aba::native::NativePlatform<aba::native::Fast>;
  using Inst = QueueInst<P>;
  using R = Inst::R;
  using CountedInst =
      QueueInst<aba::native::NativePlatform<aba::native::Counted>>;
  static constexpr bool kUsesHead = false;
  static constexpr bool kUsesRouter = true;
  static constexpr bool kUsesFence = false;
};

}  // namespace

void run_queue_sharded(const Options& o, Values& out, Report& report) {
  run_pair_workload<QueueSharded>(o, out, report);
}

}  // namespace perfbench
