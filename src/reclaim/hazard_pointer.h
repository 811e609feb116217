// HazardPointerReclaimer — Michael's hazard pointers over the index pool,
// with a pluggable guard-publication mode and a pluggable Book.
//
// A platform-generic index policy: each process owns kSlotsPerProcess
// single-writer multi-reader guard slots; guard(p, slot, i) publishes
// i there, and the structure re-validates its source word after the publish
// (if the word is unchanged, node i was not yet retired when the guard
// became visible, so every later scan sees it). retire(p, i) defers i on a
// per-process retired list; once the list reaches the scan threshold, scan(p)
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
// The Book parameter (reclaim/book.h) decides where the bookkeeping, the
// slots and the fence pair live: LocalBook<P> (default; "hazard",
// "hazard_cached") or the shm tier's SharedBook<Env> ("leased_hazard",
// "leased_hazard_cached" — the LeasedHazardReclaimer aliases).
//
// Fences: on platforms that opt into an asymmetric StoreLoad scheme
// (PlatformFenceT, see util/asymmetric_fence.h and the FastAsymmetric
// native policy), LocalBook's fence pair follows every performed publish
// with Fence::light() (a compiler barrier) and opens every scan with
// Fence::heavy() (the membarrier/mprotect side). Scans amortize the heavy
// fence: with a real heavy fence the scan threshold is raised to at least
// kHeavyFenceBatch retires so the per-op share of the syscall stays in the
// noise. Otherwise (seq_cst platforms, and SharedBook on any platform —
// its arena words are seq_cst) both fences are no-ops and the threshold is
// the standard 2·H rule.
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
// Crash robustness (reclaim/death.h): every scan first sweeps the Book for
// dead processes and — after the two-phase suspect/confirm handshake —
// expropriates them: clears their published guards, splices their retired
// and free lists into the scanning process's, and quarantines their
// in-flight allocation. Entry points self-check the caller's own death word
// or lease (veto a false suspicion, self-fence via LeaseRevoked once
// expropriated). Under LocalBook with no oracle installed (the default)
// every one of these paths is inert and the step sequence is exactly the
// classic protocol — the committed schedule corpus replays bit-identically.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/platform.h"
#include "reclaim/book.h"
#include "reclaim/death.h"
#include "reclaim/reclaimer.h"
#include "util/assert.h"

namespace aba::reclaim {

// Guard-publication modes (see the header comment).
struct EagerGuards {
  static constexpr bool kCached = false;
};
struct CachedGuards {
  static constexpr bool kCached = true;
};

template <Platform P, class Mode = EagerGuards, class BookT = LocalBook<P>>
class HazardPointerReclaimer {
 public:
  // Two slots cover every structure here: the Treiber stack guards the head
  // node (slot 0); the MS queue guards head (0) and head->next (1).
  static constexpr int kSlotsPerProcess = 2;

 private:
  // What each of p's slots currently holds (the guard cache; also the eager
  // mode's dirty tracking). kNone = slot clear. Rides in the Book's
  // per-process record.
  struct Guards {
    std::array<std::uint64_t, kSlotsPerProcess> published{};
  };
  using Book = typename BookT::template With<Guards>;
  using Fence = typename Book::Fence;

 public:
  using Env = typename Book::Env;
  static constexpr bool kCachesGuards = Mode::kCached;
  static constexpr const char* kName =
      Book::kLeased ? (kCachesGuards ? "leased_hazard_cached" : "leased_hazard")
                    : (kCachesGuards ? "hazard_cached" : "hazard");
  static constexpr bool kNeedsGuard = true;
  static constexpr bool kHeavyScan = !std::is_same_v<Fence, util::NoFence>;

  HazardPointerReclaimer(Env& env, int n, FreeLists initial_free)
      : book_(env, n, std::move(initial_free), kSlotsPerProcess) {}

  // LocalBook only: SharedBook's death detection is the lease table.
  void set_death_oracle(const DeathOracle* oracle)
    requires(!Book::kLeased)
  {
    book_.set_death_oracle(oracle);
  }

  void begin_op(int p) {
    book_.enter(p);
    book_.set_phase(p, ReclaimPhase::kInRegion);
  }

  // Publishes node `idx` in (p, slot). At most one shared write; zero when
  // the cached mode finds the slot already naming idx. The *structure*
  // must re-read its source word afterwards and retry if it moved.
  void guard(int p, int slot, std::uint64_t idx) {
    ABA_ASSERT(slot >= 0 && slot < kSlotsPerProcess);
    const std::uint64_t word = idx + 1;
    std::uint64_t& published =
        book_.ext(p).published[static_cast<std::size_t>(slot)];
    // The phase marker flips before returning either way: a cache hit
    // protects exactly like a fresh publish, and the caller is now headed
    // into its revalidation read — the worst step to park at.
    book_.set_phase(p, ReclaimPhase::kGuardPublished);
    if (!kCachesGuards || published != word) {
      book_.slot_write(slot_index(p, slot), word);
      Fence::light();
      published = word;
    }
    book_.park(p, kParkGuardPublished);
  }

  // Eager mode: clears only the slots this op actually published (tracked
  // privately), so an op that never guarded pays no shared steps here.
  // Cached mode: nothing — the published guards ARE the cache.
  void end_op(int p) {
    if constexpr (!kCachesGuards) clear_published(p);
    book_.set_phase(p, ReclaimPhase::kIdle);
  }

  // The epoch-style explicit clear: drops every guard p has published.
  // Call when p stops operating on this structure (a structure switch, a
  // worker retiring) — in the cached mode this is the only way p's slots
  // release their last pinned nodes.
  void detach(int p) { clear_published(p); }

  std::optional<std::uint64_t> allocate(int p) {
    book_.enter(p);
    if (book_.free_empty(p)) {
      scan(p);  // Pool pressure: reclaim eagerly.
      if constexpr (kCachesGuards) {
        // Still dry? allocate runs outside any protected region, so p's
        // cached guards protect nothing in flight — drop them (they may
        // pin p's own recent retirees) and rescan.
        if (book_.free_empty(p) && has_published(p)) {
          detach(p);
          scan(p);
        }
      }
    }
    return book_.take_free(p);
  }

  // The structure's linking CAS for p's in-flight node just succeeded: the
  // node is reachable, no longer at risk of being stranded by p's death.
  void commit(int p) { book_.commit(p); }

  void retire(int p, std::uint64_t idx) {
    book_.enter(p);
    const ReclaimPhase resume = book_.phase(p);
    book_.set_phase(p, ReclaimPhase::kMidRetire);
    book_.retire(p, idx);
    if (book_.retired_count(p) >= scan_threshold()) scan(p);
    book_.set_phase(p, resume);
  }

  // Batch hand-off (the Reclaimer concept's batched verb): the whole batch
  // lands on the retired list under ONE threshold check, so at most one
  // scan (and one heavy fence) runs regardless of the batch size.
  void retire_batch(int p, const std::uint64_t* idxs, std::size_t count) {
    book_.enter(p);
    if (count == 0) return;
    const ReclaimPhase resume = book_.phase(p);
    book_.set_phase(p, ReclaimPhase::kMidRetire);
    book_.retire_batch(p, idxs, count);
    if (book_.retired_count(p) >= scan_threshold()) scan(p);
    book_.set_phase(p, resume);
  }

  // Reads every hazard slot once and frees p's retired nodes that no slot
  // guards. O(H + retired) local work, H shared reads — and, on asymmetric
  // platforms, the one heavy fence that makes every reader's pending guard
  // publish visible before the slot reads.
  void scan(int p) {
    Fence::heavy();
    // Dead-process sweep first, so a dead process's just-cleared guards are
    // already gone from the slot reads below and its spliced-in retirees
    // get filtered in this very scan — a confirmed death is fully drained
    // within the same scan that confirms it.
    book_.sweep_dead(p, [this](int q) { clear_dead_guards(q); });
    std::vector<std::uint64_t> guarded;
    guarded.reserve(book_.slot_count());
    for (std::size_t i = 0; i < book_.slot_count(); ++i) {
      const std::uint64_t word = book_.slot_read(i);
      if (word != kNone) guarded.push_back(word - 1);
    }
    book_.reclaim_retired(p, [&guarded](std::uint64_t idx) {
      return std::find(guarded.begin(), guarded.end(), idx) == guarded.end();
    });
  }

  // 2·H — scans amortize to O(1) shared reads per retire while unreclaimed
  // garbage stays linear in the slot count — raised to the batch floor on
  // platforms where each scan also pays a heavy fence.
  std::size_t scan_threshold() const {
    const std::size_t base = 2 * book_.slot_count();
    if constexpr (kHeavyScan) return std::max(base, kHeavyFenceBatch);
    return base;
  }

  std::size_t pool_size() const { return book_.pool_size(); }
  std::size_t unreclaimed(int p) const { return book_.retired_count(p); }
  std::size_t free_count(int p) const { return book_.free_count(p); }

  // Engine-side observability (reclaimer.h): everything below reads
  // thread-private bookkeeping or, on SharedBook, plain arena words, so
  // sampling between steps is free.
  ReclaimStats stats() const {
    ReclaimStats s = book_.stats();
    for (int q = 0; q < book_.size(); ++q) {
      for (int slot = 0; slot < kSlotsPerProcess; ++slot) {
        if (guard_word(q, slot) != kNone) ++s.guard_slots_occupied;
      }
    }
    return s;
  }
  ReclaimPhase phase(int p) const { return book_.phase(p); }

  // The state the signature key misses: the Book's lists and crash
  // bookkeeping, plus the published mirrors, which decide where the next
  // guard lands.
  std::uint64_t fingerprint() const {
    Fingerprint fp;
    book_.fingerprint_into(fp);
    for (int q = 0; q < book_.size(); ++q) {
      fp.mix_range(book_.ext(q).published);
    }
    return fp.value();
  }

 private:
  static constexpr std::uint64_t kNone = 0;  // Indices are stored +1.

  static std::size_t slot_index(int p, int slot) {
    return static_cast<std::size_t>(p) * kSlotsPerProcess +
           static_cast<std::size_t>(slot);
  }

  // What (q, slot) holds, read where it costs no shared step: the mirror
  // when peers' mirrors are visible (a LocalBook register read would be a
  // scheduled step), else the authoritative arena word.
  std::uint64_t guard_word(int q, int slot) const {
    if constexpr (Book::kPeerMirrorsVisible) {
      return book_.ext(q).published[static_cast<std::size_t>(slot)];
    } else {
      return book_.slot_read(slot_index(q, slot));
    }
  }

  bool has_published(int p) const {
    for (const std::uint64_t word : book_.ext(p).published) {
      if (word != kNone) return true;
    }
    return false;
  }

  void clear_published(int p) {
    auto& published = book_.ext(p).published;
    for (int slot = 0; slot < kSlotsPerProcess; ++slot) {
      if (published[static_cast<std::size_t>(slot)] != kNone) {
        book_.slot_write(slot_index(p, slot), kNone);
        published[static_cast<std::size_t>(slot)] = kNone;
      }
    }
  }

  // The sweep confirmed q dead: clear its published guards so this very
  // scan's slot reads no longer see them. A LocalBook survivor knows
  // exactly which slots q published; a SharedBook survivor holds only its
  // own process's mirrors, so it clears every slot q owns.
  void clear_dead_guards(int q) {
    if constexpr (Book::kPeerMirrorsVisible) {
      clear_published(q);
    } else {
      for (int slot = 0; slot < kSlotsPerProcess; ++slot) {
        book_.slot_write(slot_index(q, slot), kNone);
      }
    }
  }

  Book book_;
};

// The guard-caching instantiation under its own name (the reclaimer axis
// treats it as a fifth policy: same safety argument as hazard, different
// hot-path cost model).
template <Platform P>
using CachedHazardPointerReclaimer = HazardPointerReclaimer<P, CachedGuards>;

}  // namespace aba::reclaim
