// EpochBasedReclaimer — epoch-based reclamation (Fraser-style EBR) over the
// index pool, with a pluggable announce mode.
//
// One global epoch counter (a WritableCas) plus one announcement register
// per process. begin_op(p) reads the global epoch and announces it,
// validating that the epoch did not move past the announcement (see the
// method comment); end_op(p) announces quiescence (eager mode). No
// per-dereference guards: an op pins *every* node reachable during its
// region at once, which is the whole appeal — dereference is free, and
// retire is one shared read plus thread-private work (the index appended to
// a limbo list stamped with the current global epoch). The epoch advances
// from e to e+1 only when every non-quiescent announcement equals e, so
// once the global epoch reaches s+2 no active region can still hold a node
// stamped s — that is the classic two-epoch grace period under which limbo
// nodes flow back to the free list.
//
// Announce modes (the Mode template parameter, mirroring the hazard
// reclaimer's EagerGuards/CachedGuards):
//
//   EagerAnnounce (default, kName "epoch") — the textbook per-op protocol:
//       every begin_op announces, every end_op writes quiescent. The
//       announce-then-validate pair is a StoreLoad pattern, so on native
//       platforms it needs seq_cst orderings — run it on Counted or Fast,
//       not FastRelaxed/FastAsymmetric (E9's matrix makes that carve-out).
//       Step sequence identical to the pre-mode reclaimer, which the
//       committed schedule corpus counts on.
//
//   DeferredAnnounce (alias DeferredEpochReclaimer, kName "epoch_deferred")
//       — announcement caching + light announce / heavy advance:
//       * The announcement STAYS published across operations. begin_op
//         compares the freshly read global epoch against the thread-private
//         announce mirror; on a hit the whole op costs ONE shared read (no
//         store, no validation). On a miss the announce store is a plain
//         (relaxed-ordering) store followed by Fence::light() — a compiler
//         barrier — and the validation loop.
//       * end_op writes nothing; detach(p) is the explicit release point
//         (epoch-style, exactly the cached-hazard contract). A process that
//         stops operating must detach or its parked announcement pins the
//         epoch indefinitely.
//       * retire(p, i) lands in a per-process LocalRing batch buffer: ZERO
//         shared steps. A full batch is flushed in one shot — one global
//         read stamps the whole batch (a flush-time stamp is >= each
//         retire-time stamp, so the grace period only lengthens), then one
//         amortized advance+flush runs.
//       * try_advance is the heavy side: it opens with Fence::heavy()
//         (membarrier/mprotect on FastAsymmetric — the same amortized home
//         the hazard scan uses), which forces every in-flight light
//         announce into visibility before the announcement scan. Soundness:
//         a reader's validated announce store retired (program order) before
//         its validation load completed, and any advance past a+1 starts
//         heavy() after that load, so its scan must observe the store and
//         veto — the global epoch can never be more than one ahead of an
//         active region's announcement, same invariant as eager mode.
//       * Because the deferred end_op leaves the announcement published,
//         try_advance(p) first refreshes p's OWN stale announcement to the
//         current epoch (p is outside any region there — allocate and
//         retire run post-end_op — so the overwrite is safe); otherwise p
//         would veto every advance it attempts itself.
//       The hit/miss decision is a pure function of the operation sequence
//       (thread-private mirror vs. the read epoch), so sim runs stay
//       deterministic and the Counted ≡ Fast ≡ FastAsymmetric tokenized
//       trace equivalence holds. The protocol is the same on every
//       platform; only the fence pair degrades (NoFence on SimPlatform /
//       Counted / Fast, where orderings or the scheduler carry the edge).
//
// Cost model (the ledger tests pin this): deferred steady state is 1 shared
// read per op (begin_op hit), 0 shared stores, 0 shared RMW; each announce
// miss adds one plain store + one validation read; each kRetireBatch
// retires pay one stamp read plus one advance (O(n) announcement reads + at
// most one CAS) — amortized to ~zero per op at native batch sizes.
//
// The dual weakness, measured by the retire-bound stress test: one stalled
// reader freezes the epoch and makes *system-wide* unreclaimed garbage
// unbounded, where hazard pointers bound it by the slot count. Deferred
// mode sharpens it: an *idle* process's cached announcement pins the epoch
// too, until detach. The paper's lens: epochs answer ABA like tags with an
// unbounded tag you only advance when it is provably safe — immune like
// LL/SC, but at the cost of unbounded space under stalls (exactly the
// bounded-vs-unbounded tension Theorem 1 is about).
//
// Contract: allocate(p) must be called *outside* p's begin_op/end_op
// region — a process cannot advance the epoch past its own stale
// announcement (deferred mode self-heals: allocate under pressure flushes
// the pending batch and refreshes p's own announcement before advancing).
//
// Crash robustness (reclaim/death.h): a dead process's stale announcement
// would otherwise freeze the epoch forever — the catastrophic version of
// the stalled-reader weakness. With a DeathOracle installed, every advance
// attempt sweeps all dead-looking processes — not just stale announcers: a
// victim that died inside a post-region retire() has a quiescent
// announcement but orphaned bookkeeping — through the two-phase
// suspect/confirm handshake; the confirm winner
// expropriates: writes the victim's announcement to quiescent (unfreezing
// the epoch), splices its limbo (re-stamping its half-recorded retiree
// conservatively) and free list into its own, drains its pending retire
// batch (re-stamped with the current epoch, so a batch parked in a dead
// process's ring is bounded garbage like the quarantine, never a leak), and
// quarantines its in-flight allocation. Entry points self-check the
// caller's own death word and self-fence via LeaseRevoked once
// expropriated. With no oracle every path is inert and the step sequence is
// the classic protocol.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/platform.h"
#include "reclaim/book.h"
#include "reclaim/death.h"
#include "reclaim/reclaimer.h"
#include "structures/ring_buffer.h"
#include "util/assert.h"
#include "util/cacheline.h"

namespace aba::reclaim {

// Announce modes (see the header comment).
struct EagerAnnounce {
  static constexpr bool kDeferred = false;
};
struct DeferredAnnounce {
  static constexpr bool kDeferred = true;
};

template <Platform P, class Mode = EagerAnnounce, std::size_t kBatchOverride = 0>
class EpochBasedReclaimer {
 public:
  static constexpr bool kDeferred = Mode::kDeferred;
  static constexpr const char* kName = kDeferred ? "epoch_deferred" : "epoch";
  static constexpr bool kNeedsGuard = false;
  // Retires between advance attempts: amortizes the O(n) announcement scan.
  static constexpr std::size_t kAdvanceEvery = 4;
  // On platforms with a real heavy fence the deferred batch is raised to
  // kHeavyFenceBatch (reclaimer.h), the hazard scan's floor too, so the
  // per-op share of the advance-side membarrier stays in the noise.
  // Elsewhere it matches kAdvanceEvery, so the deferred advance cadence
  // equals the eager one and sim searches cross the batch boundary
  // constantly. kBatchOverride pins it for the E9 retire-batch-size axis.
  using Fence = typename LocalBook<P>::Fence;
  static constexpr bool kHeavyAdvance = !std::is_same_v<Fence, util::NoFence>;
  static constexpr std::size_t kRetireBatch =
      kBatchOverride != 0 ? kBatchOverride
                          : (kHeavyAdvance ? kHeavyFenceBatch : kAdvanceEvery);
  // Starved allocates between heavy advance re-attempts while the epoch is
  // frozen (the allocate() pressure-path throttle; heavy platforms only).
  static constexpr std::uint64_t kCoastStride = 64;
  // The eager announce-validate pair is StoreLoad-shaped with no heavy side
  // to carry it: it must not compile on platforms whose orderings are
  // relaxed-with-fence (FastAsymmetric). Deferred mode is that heavy side.
  static_assert(kDeferred || !kHeavyAdvance,
                "eager epoch needs seq_cst orderings; use "
                "DeferredEpochReclaimer on asymmetric-fence platforms");

  EpochBasedReclaimer(typename P::Env& env, int n, FreeLists initial_free)
      : n_(n),
        global_(env, "epoch.global", 0, sim::BoundSpec::unbounded()),
        book_(env, n, std::move(initial_free), /*slots_per_process=*/0) {
    announce_.reserve(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      announce_.push_back(std::make_unique<typename P::Register>(
          env, "epoch.announce", kQuiescent, sim::BoundSpec::unbounded()));
    }
  }

  // Installs the liveness oracle that arms the expropriation paths (see
  // the header comment). Not a transfer of ownership; call before any
  // process operates.
  void set_death_oracle(const DeathOracle* oracle) {
    book_.set_death_oracle(oracle);
  }

  // Announce-then-validate: after writing the announcement we re-read the
  // global epoch and retry until it matches. Without the validation a
  // process that stalls between reading the epoch and publishing it could
  // announce an arbitrarily stale value — the epoch would meanwhile have
  // advanced past it, collapsing the grace period for nodes other readers
  // still hold. With it, once begin_op returns the global epoch can be at
  // most announce+1 for as long as this region is active (the advance rule
  // vetoes anything further), which is what the reuse bound relies on.
  //
  // Deferred mode adds the cache fast path: when the read epoch equals the
  // announcement already published (the thread-private mirror — no shared
  // re-read), the store AND the validation are skipped; the old validated
  // publish still carries the invariant, because its visibility guarantee
  // is permanent once established (see the header comment).
  void begin_op(int p) {
    book_.enter(p);
    auto& mine = book_.ext(p);
    if constexpr (kDeferred) {
      std::uint64_t e = global_.read();
      if (mine.announce_mirror == e) {  // Hit: zero shared stores.
        book_.set_phase(p, ReclaimPhase::kEpochAnnounced);
        return;
      }
      for (;;) {
        announce_[p]->write(e);
        Fence::light();
        // The announcement is visible from here on (on asymmetric
        // platforms: from the next heavy advance on): a process parked at
        // the validation read below already pins the epoch.
        mine.announce_mirror = e;
        book_.set_phase(p, ReclaimPhase::kEpochAnnounced);
        const std::uint64_t now = global_.read();
        if (now == e) return;
        e = now;
      }
    } else {
      for (;;) {
        const std::uint64_t e = global_.read();
        announce_[p]->write(e);
        // The announcement is visible from here on: a process parked at the
        // validation read below already pins the epoch, which is exactly the
        // worst step the schedule-search engine aims for.
        mine.announce_mirror = e;
        book_.set_phase(p, ReclaimPhase::kEpochAnnounced);
        if (global_.read() == e) return;
      }
    }
  }

  void guard(int /*p*/, int /*slot*/, std::uint64_t /*idx*/) {}

  // Eager: announce quiescence. Deferred: nothing — the published
  // announcement IS the cache; detach(p) is the release point.
  void end_op(int p) {
    if constexpr (!kDeferred) {
      announce_[p]->write(kQuiescent);
      book_.ext(p).announce_mirror = kQuiescent;
    }
    book_.set_phase(p, ReclaimPhase::kIdle);
  }

  // The explicit release: announce quiescence and drop the cache. Call when
  // p stops operating on this structure — in deferred mode this is the only
  // way p's parked announcement stops pinning the epoch. No-op when already
  // quiescent (eager mode outside a region), so structures may forward it
  // unconditionally.
  void detach(int p) {
    if (book_.ext(p).announce_mirror != kQuiescent) {
      announce_[p]->write(kQuiescent);
      book_.ext(p).announce_mirror = kQuiescent;
    }
  }

  std::optional<std::uint64_t> allocate(int p) {
    book_.enter(p);
    if (book_.free_empty(p)) {
      // Pool pressure: a fresh retiree needs two advances to mature, so try
      // up to two advance+flush rounds before reporting exhaustion. The
      // deferred batch buffer flushes first — its nodes are invisible to
      // flush() until stamped — and each advance round self-refreshes p's
      // own parked announcement (try_advance), the self-heal that keeps
      // allocate's outside-a-region contract honest in deferred mode.
      //
      // Heavy-fence throttle (FastAsymmetric only): when the epoch is
      // frozen by a descheduled peer's cached announcement, every one of
      // these advance attempts pays the membarrier just to be vetoed by
      // the same stale announcer — an oversubscribed host can spend more
      // time in the pressure-path syscalls than in the ops. After a full
      // round fails with the epoch unmoved, coast: re-attempt the heavy
      // advance only every kCoastStride-th starved allocate (or as soon as
      // the epoch moves), and meanwhile just sweep limbo against the
      // current epoch. Coasting frees nothing new — by construction
      // nothing CAN mature while the epoch is frozen — so refusals are
      // identical; only the fence cadence changes. All throttle state is
      // thread-private, and the stride bounds how long a recovered system
      // waits for its next real advance attempt.
      if constexpr (kDeferred && kHeavyAdvance) {
        auto& proc = book_.ext(p);
        const std::uint64_t g = global_.read();
        global_mirror_.store(g, std::memory_order_relaxed);
        if (proc.coast_epoch == g + 1 &&
            ++proc.coast_tries % kCoastStride != 0) {
          flush(p, g);
          if (!book_.free_empty(p)) proc.coast_epoch = 0;
        } else {
          flush_pending(p);
          std::uint64_t e = g;
          for (int round = 0; round < 2 && book_.free_empty(p); ++round) {
            e = try_advance(p);
            flush(p, e);
          }
          proc.coast_epoch = (book_.free_empty(p) && e == g) ? g + 1 : 0;
          proc.coast_tries = 0;
        }
      } else {
        if constexpr (kDeferred) flush_pending(p);
        for (int round = 0; round < 2 && book_.free_empty(p); ++round) {
          flush(p, try_advance(p));
        }
      }
    }
    return book_.take_free(p);
  }

  // The structure's linking CAS for p's in-flight node just succeeded.
  void commit(int p) { book_.commit(p); }

  // Eager: stamps the node with the global epoch read *now* (one shared
  // read per retire), not with the retiring region's announced epoch: a
  // concurrent reader may have announced one epoch later than the retirer
  // and still hold a pre-unlink snapshot of this node, and the begin-time
  // stamp would let the node mature while that reader is active. With the
  // retire-time stamp g, every reader that can hold the node announced
  // a ≤ g, and the epoch cannot pass a+1 ≤ g+1 < g+2 while it is active.
  //
  // Deferred: ZERO shared steps — the index lands in the pending ring; a
  // full ring flushes the whole batch under one stamp read (flush-time
  // g' ≥ each retire-time g, so the grace period only lengthens — strictly
  // conservative) plus one amortized advance.
  void retire(int p, std::uint64_t idx) {
    book_.enter(p);
    const ReclaimPhase resume = book_.phase(p);
    book_.set_phase(p, ReclaimPhase::kMidRetire);
    auto& mine = book_.ext(p);
    if constexpr (kDeferred) {
      mine.pending.enqueue(idx);
      if (mine.pending.full()) flush_pending(p);
    } else {
      // In-retire marker: the global read below is a shared step p can die
      // at, with idx unlinked but not yet on any list. An expropriator that
      // finds the marker set re-records the node itself.
      book_.mark_retiring(p, idx);
      const std::uint64_t g = global_.read();
      global_mirror_.store(g, std::memory_order_relaxed);
      mine.limbo.push_back(Limbo{idx, g});
      book_.clear_retiring(p);
      if (++mine.retires_since_advance >= kAdvanceEvery) {
        mine.retires_since_advance = 0;
        flush(p, try_advance(p));
      }
    }
    book_.set_phase(p, resume);
  }

  // Batch hand-off (the Reclaimer concept's batched verb): all n indices
  // stamped under ONE global read, then one amortized advance+flush. In
  // deferred mode the batch routes through the pending ring (flushing
  // whenever it fills), so crash accounting is identical to retire()'s.
  void retire_batch(int p, const std::uint64_t* idxs, std::size_t count) {
    book_.enter(p);
    if (count == 0) return;
    const ReclaimPhase resume = book_.phase(p);
    book_.set_phase(p, ReclaimPhase::kMidRetire);
    auto& mine = book_.ext(p);
    if constexpr (kDeferred) {
      for (std::size_t i = 0; i < count; ++i) {
        mine.pending.enqueue(idxs[i]);
        if (mine.pending.full()) flush_pending(p);
      }
    } else {
      const std::uint64_t g = global_.read();
      global_mirror_.store(g, std::memory_order_relaxed);
      for (std::size_t i = 0; i < count; ++i) {
        mine.limbo.push_back(Limbo{idxs[i], g});
      }
      mine.retires_since_advance += count;
      if (mine.retires_since_advance >= kAdvanceEvery) {
        mine.retires_since_advance = 0;
        flush(p, try_advance(p));
      }
    }
    book_.set_phase(p, resume);
  }

  // Drains p's pending ring into limbo under one stamp read, then runs the
  // amortized advance+flush. The only shared step before the ring empties
  // is the stamp read itself, so a death at any shared step leaves the
  // batch either entirely in the ring (swept by expropriate()) or entirely
  // in limbo (spliced as usual) — no half-recorded gap.
  void flush_pending(int p) {
    auto& mine = book_.ext(p);
    if (mine.pending.empty()) return;
    const std::uint64_t g = global_.read();
    global_mirror_.store(g, std::memory_order_relaxed);
    while (!mine.pending.empty()) {
      mine.limbo.push_back(Limbo{mine.pending.dequeue(), g});
    }
    flush(p, try_advance(p));
  }

  // Attempts one epoch advance; returns the freshest global epoch known.
  // Advance succeeds only when every announcement is quiescent or current —
  // a single stale reader (announcement < e) vetoes it... unless the oracle
  // says that reader is dead, in which case the two-phase handshake runs
  // and a confirmed death is expropriated (its announcement written
  // quiescent) instead of vetoing. p is the advancing process (the splice
  // destination); p < 0 — the engine-side/test overload — never
  // expropriates (and never self-refreshes).
  //
  // Deferred mode: opens with Fence::heavy() — the advance IS the scan-
  // shaped heavy side (membarrier on FastAsymmetric; free elsewhere) that
  // makes every pending light announce visible before the scan below.
  std::uint64_t try_advance(int p = -1) {
    if constexpr (kDeferred) Fence::heavy();
    const std::uint64_t e = global_.read();
    global_mirror_.store(e, std::memory_order_relaxed);
    if constexpr (kDeferred) {
      // Self-refresh: the deferred end_op leaves p's announcement
      // published, so p's own cache would veto p's own advance forever.
      // try_advance(p) only runs outside p's regions (allocate and retire
      // are post-end_op by the structure contract), so re-announcing the
      // current epoch is safe — p holds no snapshots the old value
      // protected.
      if (p >= 0 && book_.ext(p).announce_mirror != kQuiescent &&
          book_.ext(p).announce_mirror != e) {
        announce_[p]->write(e);
        Fence::light();
        book_.ext(p).announce_mirror = e;
      }
    }
    // Dead-lease sweep first — every dead-looking process, not just the
    // stale announcers: a process can die inside retire() *after* its
    // end_op (the structures retire post-region), with a quiescent
    // announcement but an orphaned in-retire node plus limbo and free
    // lists. Sweeping unconditionally drains those too; a confirmed death's
    // now-quiescent announcement then no longer vetoes the advance below.
    book_.sweep_dead(p, [&](int q) { expropriate(p, q, e); });
    for (int q = 0; q < n_; ++q) {
      const std::uint64_t a = announce_[q]->read();
      if (a == kQuiescent || a == e) continue;
      // Stale announcement by a live (or merely suspected) holder: veto.
      return e;
    }
    // CAS, not write: concurrent advancers must bump at most once from e.
    if (global_.cas(e, e + 1)) {
      global_mirror_.store(e + 1, std::memory_order_relaxed);
      return e + 1;
    }
    return e;
  }

  // Moves p's matured limbo nodes (stamped ≤ epoch − 2) to the free list.
  void flush(int p, std::uint64_t epoch) {
    auto& limbo = book_.ext(p).limbo;
    while (!limbo.empty() && limbo.front().epoch + 2 <= epoch) {
      book_.release(p, limbo.front().index);
      limbo.pop_front();
    }
  }

  // p won the confirm CAS on q's death word (LocalBook::sweep_dead, run at
  // every advance attempt) during an advance that read global epoch e:
  // drain q's epoch state; the book then splices q's free list and
  // quarantines its in-flight node. One shared write (the quiescent
  // announcement); the rest is q's orphaned, now exclusively-owned
  // bookkeeping.
  void expropriate(int p, int q, std::uint64_t e) {
    auto& victim = book_.ext(q);
    auto& mine = book_.ext(p);
    announce_[q]->write(kQuiescent);
    victim.announce_mirror = kQuiescent;
    if (const auto idx = book_.retiring(q)) {
      // q died inside retire, after unlinking but possibly before the limbo
      // push. Re-record conservatively with the current epoch (a full fresh
      // grace period) unless the push did land.
      bool listed = false;
      for (const auto& l : victim.limbo) {
        if (l.index == *idx) {
          listed = true;
          break;
        }
      }
      if (!listed) victim.limbo.push_back(Limbo{*idx, e});
      book_.clear_retiring(q);
    }
    // A batch parked in the dead process's pending ring: every entry is
    // unlinked but unstamped. Re-stamp with the current epoch (a full fresh
    // grace period, the in_retire rule applied batch-wide) — e is the
    // maximum stamp in flight, so appending keeps the limbo stamp-sorted.
    // Bounded garbage: at most kRetireBatch nodes per crash.
    while (!victim.pending.empty()) {
      victim.limbo.push_back(Limbo{victim.pending.dequeue(), e});
    }
    // Both limbo deques are stamp-sorted; merge keeps flush()'s
    // pop-matured-from-the-front invariant.
    std::deque<Limbo> merged;
    std::merge(mine.limbo.begin(), mine.limbo.end(), victim.limbo.begin(),
               victim.limbo.end(), std::back_inserter(merged),
               [](const Limbo& a, const Limbo& b) { return a.epoch < b.epoch; });
    mine.limbo = std::move(merged);
    victim.limbo.clear();
  }

  std::uint64_t global_epoch() { return global_.read(); }
  std::size_t pool_size() const { return book_.pool_size(); }
  std::size_t unreclaimed(int p) const {
    return book_.ext(p).limbo.size() + book_.ext(p).pending.size();
  }
  std::size_t free_count(int p) const { return book_.free_count(p); }
  std::size_t pending_count(int p) const { return book_.ext(p).pending.size(); }

  // Engine-side observability (reclaimer.h). The epoch lag — how far the
  // freshest-known global epoch has left the oldest *active* announcement
  // behind — is computed from relaxed mirror fields maintained at the write
  // sites, because reading the real platform registers would cost shared
  // steps (and, on the simulator, could only run on a simulated thread).
  // The deferred mode keeps the same discipline: the cache hit updates no
  // mirror (the announcement did not change), so stats stay mirror-only
  // with no new shared steps. A lag that stays pinned at 0 while retires
  // accumulate is the signature of a frozen epoch: the stalled announcer IS
  // the current epoch's hostage. Note that in deferred mode an IDLE
  // process's parked announcement counts toward the lag — honest, because
  // it pins the epoch exactly like an active region until detach.
  ReclaimStats stats() const {
    ReclaimStats s = book_.stats();
    const std::uint64_t global = global_mirror_.load(std::memory_order_relaxed);
    for (int q = 0; q < n_; ++q) {
      const auto& proc = book_.ext(q);
      s.retired_unreclaimed += proc.limbo.size() + proc.pending.size();
      if (proc.announce_mirror != kQuiescent &&
          global > proc.announce_mirror) {
        const std::uint64_t lag = global - proc.announce_mirror;
        if (lag > s.epoch_lag) s.epoch_lag = lag;
      }
      // The in-retire marker is deliberately NOT folded into
      // retired_unreclaimed: the committed schedule corpus's golden peaks
      // sample stats while a process is parked inside retire, where the
      // marker is transiently set. Conservation tests account for it
      // explicitly.
    }
    return s;
  }
  ReclaimPhase phase(int p) const { return book_.phase(p); }

  // The thread-private state the signature key misses: limbo stamps,
  // free-list order and pending-batch contents decide what future flushes
  // release, the advance counter decides *when* the next amortized advance
  // fires, and the crash bookkeeping decides what an expropriator would
  // drain.
  std::uint64_t fingerprint() const {
    Fingerprint fp;
    book_.fingerprint_into(fp);
    for (int q = 0; q < n_; ++q) {
      const auto& proc = book_.ext(q);
      fp.mix(proc.limbo.size());
      for (const Limbo& l : proc.limbo) fp.mix(l.index).mix(l.epoch);
      fp.mix(proc.retires_since_advance);
      fp.mix(proc.pending.size());
      for (std::size_t i = 0; i < proc.pending.size(); ++i) {
        fp.mix(proc.pending.peek(i));
      }
      fp.mix(proc.announce_mirror);
    }
    return fp.value();
  }

 private:
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};

  struct Limbo {
    std::uint64_t index;
    std::uint64_t epoch;  // Global epoch at retire (or batch-flush) time.
  };

  // Per-process epoch state, riding in LocalBook's padded record beside the
  // free list and crash markers (so the limbo/free container headers
  // touched on every retire/allocate never false-share between processes).
  struct Epochs {
    std::deque<Limbo> limbo;
    std::size_t retires_since_advance = 0;
    // Pressure-path throttle (heavy-advance platforms only): g+1 of the
    // epoch a starved advance round failed at (0 = not coasting), and the
    // starved allocates since. See allocate().
    std::uint64_t coast_epoch = 0;
    std::uint64_t coast_tries = 0;
    // The deferred retire batch: unlinked, unstamped indices awaiting the
    // one-shot flush. Always allocated (eager mode simply never fills it),
    // so both modes share every accounting path.
    structures::LocalRing<std::uint64_t> pending{kRetireBatch};
    // Observability mirror (reclaimer.h): p's own view of its
    // announcement. Written only by p, read by the engine while the
    // processes are parked — no shared steps, no races.
    std::uint64_t announce_mirror = kQuiescent;
  };

  int n_;
  typename P::WritableCas global_;
  // Freshest global epoch any process has observed; relaxed because it is
  // instrumentation (stats only), never part of the protocol.
  std::atomic<std::uint64_t> global_mirror_{0};
  // unique_ptr: platform objects are immovable; Fast pads each to a line.
  std::vector<std::unique_ptr<typename P::Register>> announce_;
  LocalBook<P, Epochs> book_;
};

// The deferred-announce instantiation under its own name (the reclaimer
// axis treats it as a sixth policy: same grace-period argument as epoch,
// different hot-path cost model — the guard-caching move applied to
// announcements).
template <Platform P>
using DeferredEpochReclaimer = EpochBasedReclaimer<P, DeferredAnnounce>;

}  // namespace aba::reclaim
