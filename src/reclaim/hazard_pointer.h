// HazardPointerReclaimer — Michael's hazard pointers over the index pool,
// with a pluggable guard-publication mode.
//
// A platform-generic index policy: each process owns kSlotsPerProcess
// single-writer multi-reader Platform registers; guard(p, slot, i) publishes
// i there, and the structure re-validates its source word after the publish
// (if the word is unchanged, node i was not yet retired when the guard
// became visible, so every later scan sees it). retire(p, i) defers i on a
// thread-private list; once the list reaches the scan threshold, scan(p)
// reads all H slots once (H = total slots) and releases every unguarded
// index back to p's free list.
//
// Guard modes (the Mode template parameter):
//
//   EagerGuards (default, kName "hazard") — the textbook per-op protocol:
//       every guarded dereference publishes, every end_op clears what the
//       op published. Step sequence identical to the pre-guard-cache
//       reclaimer, which the deterministic sim schedules count on.
//
//   CachedGuards (kName "hazard_cached") — guard caching: a published slot
//       STAYS published across consecutive operations on the same
//       structure. The hot path compares the requested index against the
//       thread-private record of what the slot already holds; on a hit the
//       publish (a shared store, plus its fence on seq_cst platforms) is
//       skipped entirely and only the structure's revalidation load runs.
//       end_op clears nothing. The costs move:
//         * a process's slots pin up to kSlotsPerProcess nodes between
//           operations — including, transiently, its own latest retiree —
//           so the unreclaimed bound gains +H but stays independent of
//           stall duration;
//         * a process that stops operating on this structure must call
//           detach(p) (the epoch-style explicit clear) or its cached
//           guards pin those nodes indefinitely. allocate(p) self-heals
//           under pool pressure: it runs outside any protected region, so
//           it may drop p's own cached guards and rescan.
//       The hit/miss decision is a pure function of the operation sequence
//       (thread-private state only), so sim runs stay deterministic and
//       Fast ≡ Counted trace equivalence holds.
//
// Fences: on platforms that opt into an asymmetric StoreLoad scheme
// (PlatformFenceT, see util/asymmetric_fence.h and the FastAsymmetric
// native policy), every performed publish is followed by Fence::light()
// (a compiler barrier) and every scan opens with Fence::heavy() (the
// membarrier/mprotect side). Scans amortize the heavy fence: on such
// platforms the scan threshold is raised to at least kHeavyScanFloor
// retires so the per-op share of the syscall stays in the noise. On
// seq_cst platforms both fences are no-ops and the threshold is the
// standard 2·H rule.
//
// Guarantees (docs/RECLAMATION.md has the comparison table):
//   space  — unreclaimed garbage is bounded: per process at most the scan
//            threshold + H guarded nodes, independent of stalled readers'
//            *duration* (a stalled reader pins at most its own slots).
//   time   — retire is O(1) amortized; every threshold retires pay one
//            O(H) scan (plus one heavy fence on asymmetric platforms).
//            guard costs at most one shared write plus the structure's
//            revalidation read per dereference — zero shared writes on a
//            cached hit.
//
// The paper's trichotomy: this is the application-specific reclamation
// answer to ABA, contrasted with bounded tags (TaggedReclaimer + tagged
// head) and LL/SC (which the paper constructs from bounded CAS).
//
// Memory orderings: publish-then-revalidate is a StoreLoad pattern (the
// guard write must be visible before the revalidation read of a different
// word), exactly like the Figure 4 announce-array register. On native
// platforms run it under seq_cst orderings — Counted or Fast — or under
// FastAsymmetric, where the fence pair above replaces seq_cst's per-access
// cost. Never under plain FastRelaxed.
//
// Crash robustness (reclaim/death.h): with a DeathOracle installed, every
// scan first sweeps for dead processes and — after the two-phase
// suspect/confirm handshake — expropriates them: clears their published
// guards, splices their retired and free lists into the scanning process's,
// and quarantines their in-flight allocation. Entry points self-check the
// caller's own death word (veto a false suspicion, self-fence via
// LeaseRevoked once expropriated). With no oracle (the default) every one
// of these paths is inert and the step sequence is exactly the classic
// protocol — the committed schedule corpus replays bit-identically.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/platform.h"
#include "reclaim/death.h"
#include "reclaim/reclaimer.h"
#include "util/assert.h"
#include "util/cacheline.h"

namespace aba::reclaim {

// Guard-publication modes (see the header comment).
struct EagerGuards {
  static constexpr bool kCached = false;
};
struct CachedGuards {
  static constexpr bool kCached = true;
};

template <Platform P, class Mode = EagerGuards>
class HazardPointerReclaimer {
 public:
  static constexpr bool kCachesGuards = Mode::kCached;
  static constexpr const char* kName =
      kCachesGuards ? "hazard_cached" : "hazard";
  static constexpr bool kNeedsGuard = true;
  // Two slots cover every structure here: the Treiber stack guards the head
  // node (slot 0); the MS queue guards head (0) and head->next (1).
  static constexpr int kSlotsPerProcess = 2;
  // On platforms with a real heavy fence (asymmetric scheme), scans batch
  // at least this many retires so the membarrier cost amortizes to noise.
  static constexpr std::size_t kHeavyScanFloor = 256;
  static constexpr bool kHeavyScan =
      !std::is_same_v<PlatformFenceT<P>, util::NoFence>;

  HazardPointerReclaimer(typename P::Env& env, int n, FreeLists initial_free)
      : n_(n), procs_(static_cast<std::size_t>(n)) {
    ABA_CHECK(static_cast<int>(initial_free.size()) == n);
    for (int p = 0; p < n; ++p) {
      procs_[p].free = std::move(initial_free[p]);
      pool_size_ += procs_[p].free.size();
    }
    slots_.reserve(static_cast<std::size_t>(n) * kSlotsPerProcess);
    for (int i = 0; i < n * kSlotsPerProcess; ++i) {
      slots_.push_back(std::make_unique<typename P::Register>(
          env, "hp.slot", kNone, sim::BoundSpec::unbounded()));
    }
  }

  // Installs the liveness oracle that arms the expropriation paths. Not a
  // transfer of ownership; pass nullptr to disarm. Call before any process
  // operates (the pointer itself is not synchronized).
  void set_death_oracle(const DeathOracle* oracle) { death_oracle_ = oracle; }

  void begin_op(int p) {
    death_self_check(procs_[p].death);
    procs_[p].phase = ReclaimPhase::kInRegion;
  }

  // Publishes node `idx` in (p, slot). At most one shared write; zero when
  // the cached mode finds the slot already naming idx. The *structure*
  // must re-read its source word afterwards and retry if it moved.
  void guard(int p, int slot, std::uint64_t idx) {
    ABA_ASSERT(slot >= 0 && slot < kSlotsPerProcess);
    const std::uint64_t word = idx + 1;
    auto& published = procs_[p].published;
    // The phase marker flips before returning either way: a cache hit
    // protects exactly like a fresh publish, and the caller is now headed
    // into its revalidation read — the worst step to park at.
    procs_[p].phase = ReclaimPhase::kGuardPublished;
    if constexpr (kCachesGuards) {
      if (published[static_cast<std::size_t>(slot)] == word) return;  // Hit.
    }
    slot_ref(p, slot).write(word);
    PlatformFenceT<P>::light();
    published[static_cast<std::size_t>(slot)] = word;
  }

  // Eager mode: clears only the slots this op actually published (tracked
  // privately), so an op that never guarded pays no shared steps here.
  // Cached mode: nothing — the published guards ARE the cache.
  void end_op(int p) {
    if constexpr (!kCachesGuards) clear_published(p);
    procs_[p].phase = ReclaimPhase::kIdle;
  }

  // The epoch-style explicit clear: drops every guard p has published.
  // Call when p stops operating on this structure (a structure switch, a
  // worker retiring) — in the cached mode this is the only way p's slots
  // release their last pinned nodes.
  void detach(int p) { clear_published(p); }

  std::optional<std::uint64_t> allocate(int p) {
    death_self_check(procs_[p].death);
    auto& free = procs_[p].free;
    if (free.empty()) {
      scan(p);  // Pool pressure: reclaim eagerly.
      if constexpr (kCachesGuards) {
        // Still dry? allocate runs outside any protected region, so p's
        // cached guards protect nothing in flight — drop them (they may
        // pin p's own recent retirees) and rescan.
        if (free.empty() && has_published(p)) {
          detach(p);
          scan(p);
        }
      }
    }
    if (free.empty()) return std::nullopt;
    const std::uint64_t idx = free.front();
    free.pop_front();
    // In-flight marker: if p dies before its linking CAS commits, an
    // expropriator quarantines this node instead of freeing it.
    procs_[p].in_flight = idx + 1;
    return idx;
  }

  // The structure's linking CAS for p's in-flight node just succeeded: the
  // node is reachable, no longer at risk of being stranded by p's death.
  void commit(int p) { procs_[p].in_flight = kNone; }

  void retire(int p, std::uint64_t idx) {
    death_self_check(procs_[p].death);
    const ReclaimPhase resume = procs_[p].phase;
    procs_[p].phase = ReclaimPhase::kMidRetire;
    procs_[p].retired.push_back(idx);
    if (procs_[p].retired.size() >= scan_threshold()) scan(p);
    procs_[p].phase = resume;
  }

  // Batch hand-off (the Reclaimer concept's batched verb): the whole batch
  // lands on the retired list under ONE threshold check, so at most one
  // scan (and one heavy fence) runs regardless of the batch size.
  void retire_batch(int p, const std::uint64_t* idxs, std::size_t count) {
    death_self_check(procs_[p].death);
    if (count == 0) return;
    const ReclaimPhase resume = procs_[p].phase;
    procs_[p].phase = ReclaimPhase::kMidRetire;
    for (std::size_t i = 0; i < count; ++i) {
      procs_[p].retired.push_back(idxs[i]);
    }
    if (procs_[p].retired.size() >= scan_threshold()) scan(p);
    procs_[p].phase = resume;
  }

  // Reads every hazard slot once and frees p's retired nodes that no slot
  // guards. O(H + retired) local work, H shared reads — and, on asymmetric
  // platforms, the one heavy fence that makes every reader's pending guard
  // publish visible before the slot reads.
  void scan(int p) {
    PlatformFenceT<P>::heavy();
    // Dead-lease sweep first, so a dead process's just-cleared guards are
    // already gone from the slot reads below and its spliced-in retirees
    // get filtered in this very scan — a confirmed death is fully drained
    // within the same scan that confirms it.
    expropriate_dead(p);
    std::vector<std::uint64_t> guarded;
    guarded.reserve(slots_.size());
    for (const auto& slot : slots_) {
      const std::uint64_t word = slot->read();
      if (word != kNone) guarded.push_back(word - 1);
    }
    auto& retired = procs_[p].retired;
    std::vector<std::uint64_t> keep;
    keep.reserve(retired.size());
    for (const std::uint64_t idx : retired) {
      bool pinned = false;
      for (const std::uint64_t g : guarded) {
        if (g == idx) {
          pinned = true;
          break;
        }
      }
      if (pinned) {
        keep.push_back(idx);
      } else {
        procs_[p].free.push_back(idx);
      }
    }
    retired = std::move(keep);
  }

  // 2·H — scans amortize to O(1) shared reads per retire while unreclaimed
  // garbage stays linear in the slot count — raised to the batch floor on
  // platforms where each scan also pays a heavy fence.
  std::size_t scan_threshold() const {
    const std::size_t base = 2 * slots_.size();
    if constexpr (kHeavyScan) return std::max(base, kHeavyScanFloor);
    return base;
  }

  std::size_t pool_size() const { return pool_size_; }
  std::size_t unreclaimed(int p) const { return procs_[p].retired.size(); }
  std::size_t free_count(int p) const { return procs_[p].free.size(); }

  // Engine-side observability (reclaimer.h): everything below reads only
  // thread-private bookkeeping, so sampling between steps is free.
  ReclaimStats stats() const {
    ReclaimStats s;
    s.pool_size = pool_size_;
    for (const auto& proc : procs_) {
      s.retired_unreclaimed += proc.retired.size();
      s.free_nodes += proc.free.size();
      for (const std::uint64_t word : proc.published) {
        if (word != kNone) ++s.guard_slots_occupied;
      }
      s.quarantined += proc.quarantine.size();
      if (proc.in_flight != kNone) ++s.in_flight;
      s.expropriations += proc.expropriations;
    }
    return s;
  }
  ReclaimPhase phase(int p) const { return procs_[p].phase; }

  // The thread-private state the signature key misses: free-list order and
  // retired contents decide which indices future allocates/scans move, the
  // published mirror and phase decide where the next guard lands, and the
  // crash bookkeeping decides what an expropriator would drain.
  std::uint64_t fingerprint() const {
    Fingerprint fp;
    for (const auto& proc : procs_) {
      fp.mix_range(proc.free);
      fp.mix_range(proc.retired);
      fp.mix_range(proc.published);
      fp.mix(static_cast<std::uint64_t>(proc.phase));
      fp.mix(proc.in_flight);
      fp.mix_range(proc.quarantine);
      fp.mix(proc.expropriations);
      fp.mix(proc.death.load(std::memory_order_relaxed));
    }
    return fp.value();
  }

 private:
  static constexpr std::uint64_t kNone = 0;  // Indices are stored +1.

  typename P::Register& slot_ref(int p, int slot) {
    ABA_ASSERT(p >= 0 && p < n_);
    return *slots_[static_cast<std::size_t>(p) * kSlotsPerProcess + slot];
  }

  bool has_published(int p) const {
    for (const std::uint64_t word : procs_[p].published) {
      if (word != kNone) return true;
    }
    return false;
  }

  void clear_published(int p) {
    auto& published = procs_[p].published;
    for (int slot = 0; slot < kSlotsPerProcess; ++slot) {
      if (published[static_cast<std::size_t>(slot)] != kNone) {
        slot_ref(p, slot).write(kNone);
        published[static_cast<std::size_t>(slot)] = kNone;
      }
    }
  }

  // Two-phase dead-lease sweep (reclaim/death.h): suspect a dead-looking
  // process on one scan, confirm — re-consulting the oracle — on a later
  // one. The confirm CAS winner drains the victim. With no oracle (or no
  // deaths) this loop performs no shared steps, which is what keeps the
  // committed schedule corpus bit-identical.
  void expropriate_dead(int p) {
    if (death_oracle_ == nullptr) return;
    for (int q = 0; q < n_; ++q) {
      if (q == p || !death_oracle_->is_dead(q)) continue;
      if (advance_death(procs_[q].death) == DeathStep::kConfirmed) {
        expropriate(p, q);
      }
    }
  }

  // p won the confirm CAS on q's death word: drain q. Clearing q's slots is
  // a shared write per published guard; everything else splices q's
  // (orphaned, now exclusively-owned) thread-private bookkeeping into p's.
  void expropriate(int p, int q) {
    auto& victim = procs_[q];
    auto& mine = procs_[p];
    for (int slot = 0; slot < kSlotsPerProcess; ++slot) {
      if (victim.published[static_cast<std::size_t>(slot)] != kNone) {
        slot_ref(q, slot).write(kNone);
        victim.published[static_cast<std::size_t>(slot)] = kNone;
      }
    }
    for (const std::uint64_t idx : victim.retired) mine.retired.push_back(idx);
    victim.retired.clear();
    while (!victim.free.empty()) {
      mine.free.push_back(victim.free.front());
      victim.free.pop_front();
    }
    if (victim.in_flight != kNone) {
      // Possibly linked by a CAS whose bookkeeping store never ran (on real
      // hardware the kill can land between the two) — quarantine, never free.
      mine.quarantine.push_back(victim.in_flight - 1);
      victim.in_flight = kNone;
    }
    ++mine.expropriations;
  }

  // Thread-private bookkeeping, one cache line per process: published[] is
  // consulted/written on every guard and the container headers on every
  // allocate/retire, so packing neighbours together would false-share.
  struct alignas(util::kCacheLineSize) PerProcess {
    std::deque<std::uint64_t> free;
    std::vector<std::uint64_t> retired;
    // What each of p's slots currently holds (the guard cache; also the
    // eager mode's dirty tracking). kNone = slot clear.
    std::array<std::uint64_t, kSlotsPerProcess> published{};
    // Protocol position for the schedule-search engine (reclaimer.h).
    ReclaimPhase phase = ReclaimPhase::kIdle;
    // Crash-robustness bookkeeping (reclaim/death.h). in_flight is p's
    // allocated-but-unlinked node (stored +1); quarantine holds nodes p
    // quarantined from victims it expropriated; death is p's own state in
    // the suspect/confirm handshake — the one field other processes write.
    std::uint64_t in_flight = kNone;
    std::vector<std::uint64_t> quarantine;
    std::size_t expropriations = 0;
    std::atomic<std::uint8_t> death{kDeathLive};
  };

  const DeathOracle* death_oracle_ = nullptr;
  int n_;
  // unique_ptr because platform objects wrap std::atomic and are immovable;
  // the native Fast policy pads each register to its own cache line, which
  // keeps one process's publish/clear traffic from invalidating its
  // neighbours' slots.
  std::vector<std::unique_ptr<typename P::Register>> slots_;
  std::vector<PerProcess> procs_;
  std::size_t pool_size_ = 0;
};

// The guard-caching instantiation under its own name (the reclaimer axis
// treats it as a fifth policy: same safety argument as hazard, different
// hot-path cost model).
template <Platform P>
using CachedHazardPointerReclaimer = HazardPointerReclaimer<P, CachedGuards>;

}  // namespace aba::reclaim
