// stack_churn: 4 threads run push;pop pairs on one
// TreiberStack<TaggedCasHead> with cached hazard pointers on
// NativePlatform<Fast> (seq_cst). Nearly all work lands on one hot word:
// the head CAS loop and backoff, the guard publish, and retire/scan. No
// shard router.
//
// Not on FastAsymmetric: there every hazard scan sends membarrier IPIs to
// the other three threads, and on a shared 4-vCPU KVM guest their cost
// follows the host's load. Run alternately over the same 6 minutes, that
// variant ranged 4.6-11.0 Mops/s and this one 7.0-8.0. The traced run still
// times the membarrier fence itself (util.fence.heavy_ns, on FenceP).
#include <memory>
#include <optional>

#include "native/native_platform.h"
#include "pairs.h"
#include "reclaim/hazard_pointer.h"
#include "structures/treiber_stack.h"
#include "workloads.h"

namespace perfbench {
namespace {

template <class P>
class StackInst {
 public:
  using R = aba::reclaim::CachedHazardPointerReclaimer<P>;
  using Head = aba::structures::TaggedCasHead<P>;
  using Stack = aba::structures::TreiberStack<P, Head, R>;
  static constexpr const char* kPut = "push";
  static constexpr const char* kTake = "pop";

  explicit StackInst(int n)
      : stack_(env_, n, std::make_unique<Head>(env_, n),
               Stack::partition(n, kPoolPerThread)) {}

  bool put(int p, std::uint64_t v) { return stack_.push(p, v); }
  std::optional<std::uint64_t> take(int p) { return stack_.pop(p); }
  void detach(int p) { stack_.detach(p); }
  int shard_of(int /*p*/) const { return 0; }
  void attach_probes(aba::structures::ContentionProbe* probes) {
    stack_.set_contention_probe(&probes[0]);
  }
  aba::reclaim::ReclaimStats stats() const { return stack_.reclaimer().stats(); }

 private:
  typename P::Env env_;
  Stack stack_;
};

struct StackChurn {
  using P = aba::native::NativePlatform<aba::native::Fast>;
  using Inst = StackInst<P>;
  using R = Inst::R;
  using CountedInst =
      StackInst<aba::native::NativePlatform<aba::native::Counted>>;
  static constexpr bool kUsesHead = true;
  static constexpr bool kUsesRouter = false;
  static constexpr bool kUsesFence = true;
  using FenceP = aba::native::NativePlatform<aba::native::FastAsymmetric>;
};

}  // namespace

void run_stack_churn(const Options& o, Values& out, Report& report) {
  run_pair_workload<StackChurn>(o, out, report);
}

}  // namespace perfbench
