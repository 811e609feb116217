// Leased reclaimers — crash-robust hazard-pointer and epoch reclamation
// whose bookkeeping lives in the shared arena, covered by pid leases.
//
// The in-process reclaimers keep their bookkeeping in LocalBook
// (reclaim/book.h): thread-private heap memory, correct across threads,
// but a SIGKILLed *process* takes its lists to the grave — every node it
// owned leaks forever and its published guards/announcements pin (hazard)
// or freeze (epoch) the survivors' reclamation permanently. SharedBook,
// defined here, is the shm tier's Book: it moves all of that state into
// the segment. The hazard half of this tier is not a separate class — the
// LeasedHazardReclaimer aliases are the one hazard algorithm
// (reclaim/hazard_pointer.h) over SharedBook. The leased epoch reclaimer
// below keeps its own epoch rules over SharedBook's lists and lease duties.
// The arena words:
//
//   links[pool]          — intrusive next-words; a node is on exactly one
//                          list (free, retired/limbo, or quarantine), so
//                          one word per node carries every list.
//   per-lease heads      — free_head[p], retired_head[p] (+ counters):
//                          single-owner lists. Only lease-holder p touches
//                          them while p is alive; after the pid-lease
//                          confirm CAS (pid_lease.h) exactly one survivor
//                          owns them instead and splices them into its own.
//   in_flight[p]         — allocate() records the node it is *about to*
//                          unlink from the free list before unlinking it,
//                          and the structure's commit(p) hook clears it
//                          after the linking CAS. An expropriator that finds
//                          the marker set checks membership: still on the
//                          free list means the crash hit between intent and
//                          unlink (node is safe in the splice); otherwise
//                          the node may or may not be reachable from the
//                          structure — it is QUARANTINED, never freed, so a
//                          kill landing between the linking CAS and the
//                          bookkeeping store can never cause a double-free.
//                          Cost: at most one pool slot per crash. The window
//                          is first-class for the crash harnesses: allocate
//                          moves the process to ReclaimPhase::kMidAllocate
//                          and commit() parks at kParkInFlight before
//                          clearing the marker, so both the fork/SIGKILL
//                          driver and the model checker's crash grants can
//                          land a kill exactly between the linking CAS and
//                          the in_flight clear — the one window where the
//                          quarantine rule is load-bearing.
//   in_retire[p]         — the mirror marker around retire(): set before
//                          the node joins the retired list, cleared after.
//                          The expropriator re-homes a marked node that
//                          never made it onto the list.
//
// Recovery bound: a death is suspected at the first survivor scan that
// probes it and confirmed (then fully drained — guards cleared, lists
// spliced, markers resolved, lease reaped) at the second, so every node a
// dead process owned is back in circulation within TWO survivor scans —
// except the at-most-one quarantined in-flight node, which is the price of
// never double-freeing. The epoch variant additionally clears the dead
// process's frozen announcement, so the global epoch advances again and the
// spliced limbo drains by the normal two-advance rule.
//
// Suspicion is driven by BOTH liveness probes and heartbeat staleness: a
// scan suspects a peer whose pid looks gone OR whose heartbeat has not
// moved across this scanner's whole previous-to-current scan interval (each
// scanner remembers the last heartbeat it saw per peer). Staleness can only
// ever *suspect* — confirmation still requires the pid definitively gone
// AND the heartbeat unchanged since suspicion — so a live-but-slow process
// is vetoed back to kLive at its next entry point instead of being seized
// (the two-phase handshake in pid_lease.h). The staleness edge is what
// makes suspicion reachable on hosts where "gone" is rare or meaningless
// (the simulator, where a crashed process simply never runs again), and it
// is the decision the kStaleConfirm lease mutant removes.
//
// Host/Env templating: SharedBook (and so both reclaimers) is templated
// over the platform Env (default ShmPlatform::Env) and derives the
// lease-table type from Env::leases, so the same protocol code runs over
// the production shm arena, a plain heap arena (shm/lease_hosts.h, for
// single-process determinism tests), or the simulator's arena +
// SimPlatform-hosted lease table (sim/sim_lease.h, where the model checker
// searches the suspect/confirm/veto CASes as first-class steps). An Env may
// carry a `mutation` field (reclaim::LeaseMutation) — the test-only seam
// the lease-mutant zoo uses; envs without the field get shipped behavior.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "reclaim/book.h"
#include "reclaim/death.h"
#include "reclaim/hazard_pointer.h"
#include "reclaim/mutant.h"
#include "reclaim/reclaimer.h"
#include "shm/pid_lease.h"
#include "shm/shm_platform.h"
#include "util/assert.h"

namespace aba::shm {

namespace detail {

// The test-only mutation seam: an Env that carries a LeaseMutation opts in;
// every production Env (ShmPlatform::Env) has no such field and compiles
// straight to kNone.
template <class Env>
constexpr reclaim::LeaseMutation mutation_of(const Env& env) {
  if constexpr (requires { env.mutation; }) {
    return env.mutation;
  } else {
    return reclaim::LeaseMutation::kNone;
  }
}

// Arena-resident intrusive lists over one links[] array. Heads and links
// store index+1; 0 is the empty list / null. All operations are issued by
// the list's single owner (the lease holder, or the confirmed expropriator).
//
// Every traversal here is bounded by the pool size. A well-formed list can
// never hold more than `pool` nodes, so the caps cost nothing in the good
// case — but the link words live in the shared segment, and a peer that
// crashed mid-update (or a buggy peer) can leave a cycle behind. A survivor
// draining that peer's lists must terminate regardless; an unbounded walk
// over corrupt links would hang it inside crash recovery.
class NodeLists {
 public:
  template <class Arena>
  NodeLists(Arena& arena, const char* tag, std::size_t pool)
      : links_(arena.template place_array<std::atomic<std::uint64_t>>(tag,
                                                                      pool)),
        pool_(static_cast<std::uint64_t>(pool)) {}

  void push(std::atomic<std::uint64_t>& head, std::uint64_t idx) {
    links_[idx].store(head.load(std::memory_order_seq_cst),
                      std::memory_order_seq_cst);
    head.store(idx + 1, std::memory_order_seq_cst);
  }

  // Push for heads with MULTIPLE writers (the global quarantine: two
  // survivors confirming different victims push concurrently). The list is
  // push-only, so a CAS on the head is all the coordination needed.
  void push_shared(std::atomic<std::uint64_t>& head, std::uint64_t idx) {
    std::uint64_t h = head.load(std::memory_order_seq_cst);
    do {
      links_[idx].store(h, std::memory_order_seq_cst);
    } while (!head.compare_exchange_weak(h, idx + 1, std::memory_order_seq_cst,
                                         std::memory_order_seq_cst));
  }

  std::optional<std::uint64_t> pop(std::atomic<std::uint64_t>& head) {
    const std::uint64_t h = head.load(std::memory_order_seq_cst);
    if (h == 0) return std::nullopt;
    head.store(links_[h - 1].load(std::memory_order_seq_cst),
               std::memory_order_seq_cst);
    return h - 1;
  }

  bool contains(const std::atomic<std::uint64_t>& head,
                std::uint64_t idx) const {
    std::uint64_t steps = 0;
    for (std::uint64_t w = head.load(std::memory_order_seq_cst);
         w != 0 && steps <= pool_;
         w = links_[w - 1].load(std::memory_order_seq_cst), ++steps) {
      if (w - 1 == idx) return true;
    }
    return false;
  }

  // Moves every node of `from` onto `to`; returns how many moved. Bounded:
  // a corrupt `from` (cyclic links from a crashed peer) yields at most
  // `pool` moves instead of looping forever.
  std::uint64_t splice(std::atomic<std::uint64_t>& from,
                       std::atomic<std::uint64_t>& to) {
    std::uint64_t moved = 0;
    while (moved < pool_) {
      auto idx = pop(from);
      if (!idx) break;
      push(to, *idx);
      ++moved;
    }
    return moved;
  }

  void fingerprint_into(std::size_t pool, reclaim::Fingerprint& fp) const {
    fp.mix(static_cast<std::uint64_t>(pool));
    for (std::size_t i = 0; i < pool; ++i) {
      fp.mix(links_[i].load(std::memory_order_seq_cst));
    }
  }

 private:
  std::atomic<std::uint64_t>* links_;
  std::uint64_t pool_;
};

}  // namespace detail

// The shm tier's Book (reclaim/book.h has the verbs): the arena words the
// file comment lists plus the guard slots, placed in one deterministic
// burst so creator and attachers agree on offsets, and the lease duties
// both leased reclaimers share — entry self-check + heartbeat, park points,
// the kMidAllocate -> commit window, the in_retire marker, pending-window
// staging, and the staleness suspect/confirm sweep that drains and reaps a
// dead lease.
template <class E, class Ext = reclaim::NoExt>
class SharedBook {
 public:
  using Env = E;
  using Leases = std::remove_pointer_t<decltype(E::leases)>;
  // Arena words are seq_cst: no fence pair, and the 2·H scan threshold.
  using Fence = util::NoFence;
  template <class X>
  using With = SharedBook<E, X>;
  static constexpr bool kLeased = true;
  // Each OS process has its own copy of every process-local field: a
  // survivor trusts only the arena words of a dead peer.
  static constexpr bool kPeerMirrorsVisible = false;
  // The batched retire hand-off's staging window, per lease. A retire_batch
  // chunk is recorded here — in the segment — BEFORE any of it moves onto
  // the retired list, so a kill mid-drain leaves every node either staged
  // (swept by drain_dead, the suspect/confirm path) or already retired,
  // never unlisted. Bounded like the quarantine: at most kPendingCap nodes
  // can be parked in a dead process's window.
  static constexpr std::size_t kPendingCap = 16;

  SharedBook(Env& env, int n, const reclaim::FreeLists& initial,
             int slots_per_process)
      : leases_(env.leases),
        n_(n),
        pool_(pool_of(initial)),
        lists_(*env.arena, "book.links", pool_),
        mutation_(detail::mutation_of(env)) {
    ABA_CHECK_MSG(leases_ != nullptr,
                  "leased reclaimers need Env::leases (a pid-lease table)");
    ABA_CHECK(leases_->max_procs() >= n);
    auto& a = *env.arena;
    const auto count = static_cast<std::size_t>(n);
    free_head_ = a.template place_array<Word>("book.free_head", count);
    free_count_ = a.template place_array<Word>("book.free_count", count);
    retired_head_ = a.template place_array<Word>("book.retired_head", count);
    retired_count_ = a.template place_array<Word>("book.retired_count", count);
    in_flight_ = a.template place_array<Word>("book.in_flight", count);
    in_retire_ = a.template place_array<Word>("book.in_retire", count);
    pending_ =
        a.template place_array<Word>("book.pending", count * kPendingCap);
    pending_count_ = a.template place_array<Word>("book.pending_count", count);
    quarantine_head_ = a.template place<Word>("book.quarantine_head");
    quarantine_count_ = a.template place<Word>("book.quarantine_count");
    expropriations_ = a.template place<Word>("book.expropriations");
    if (env.owner) {
      for (int p = 0; p < n; ++p) {
        for (const std::uint64_t idx : initial[static_cast<std::size_t>(p)]) {
          release(p, idx);
        }
      }
    }
    slot_count_ = count * static_cast<std::size_t>(slots_per_process);
    if (slot_count_ != 0) {
      slots_ = a.template place_array<Word>("hp.slots", slot_count_);
    }
    local_.resize(count);
    hb_seen_.assign(count * count, 0);
  }

  int size() const { return n_; }
  std::size_t pool_size() const { return pool_; }
  reclaim::LeaseMutation mutation() const { return mutation_; }
  Ext& ext(int p) { return local_[p]; }
  const Ext& ext(int p) const { return local_[p]; }
  reclaim::ReclaimPhase phase(int p) const { return local_[p].phase; }
  void set_phase(int p, reclaim::ReclaimPhase phase) {
    local_[p].phase = phase;
  }

  // Entry-point lease duty: self-fence once expropriated (vetoing a false
  // suspicion on the way), then prove liveness with a heartbeat.
  void enter(int p) {
    leases_->self_check(p);
    leases_->beat(p);
  }
  void park(int p, std::uint64_t point) { leases_->maybe_park(p, point); }

  std::size_t slot_count() const { return slot_count_; }
  std::uint64_t slot_read(std::size_t i) const {
    return slots_[i].load(std::memory_order_seq_cst);
  }
  void slot_write(std::size_t i, std::uint64_t word) {
    slots_[i].store(word, std::memory_order_seq_cst);
  }

  bool free_empty(int p) const {
    return free_head_[p].load(std::memory_order_seq_cst) == 0;
  }
  std::size_t free_count(int p) const {
    return static_cast<std::size_t>(
        free_count_[p].load(std::memory_order_relaxed));
  }

  // allocate()'s crash-safe pop: intent marker BEFORE the unlink. The
  // crash-marked window opens here — in_flight[p] stays set through the
  // structure's linking CAS until commit(p).
  std::optional<std::uint64_t> take_free(int p) {
    const std::uint64_t h = free_head_[p].load(std::memory_order_seq_cst);
    if (h == 0) return std::nullopt;
    in_flight_[p].store(h, std::memory_order_seq_cst);
    auto popped = lists_.pop(free_head_[p]);
    free_count_[p].fetch_sub(1, std::memory_order_relaxed);
    local_[p].alloc_resume = local_[p].phase;
    local_[p].phase = reclaim::ReclaimPhase::kMidAllocate;
    return popped;
  }

  void commit(int p) {
    // Park BEFORE the marker clear: the node is (possibly) linked and still
    // marked — the exact instant the quarantine rule exists for, and the
    // instant the crash harnesses want to land a kill on.
    park(p, kParkInFlight);
    in_flight_[p].store(0, std::memory_order_seq_cst);
    local_[p].phase = local_[p].alloc_resume;
  }

  // The in_retire marker brackets the push; stamp() (the epoch's per-node
  // stamp) runs after the post-park self-check, right before the push.
  template <class Stamp>
  void retire(int p, std::uint64_t idx, Stamp&& stamp) {
    in_retire_[p].store(idx + 1, std::memory_order_seq_cst);
    park(p, kParkMidRetire);
    // Re-validate after the park: a worker that was expropriated while
    // parked (the simulated-kill rendezvous) must self-fence here instead
    // of pushing onto lists that now belong to the expropriator.
    leases_->self_check(p);
    stamp();
    retire_onto(p, idx);
    in_retire_[p].store(0, std::memory_order_seq_cst);
  }
  void retire(int p, std::uint64_t idx) { retire(p, idx, [] {}); }

  // Batch hand-off: each chunk is staged in the pending window before any
  // node moves to the retired list (crash-safe — a batch parked in a dead
  // process's window is swept by drain_dead). stamper() runs once per
  // chunk after the post-park self-check and returns the per-node stamp.
  template <class Stamper>
  void retire_batch(int p, const std::uint64_t* idxs, std::size_t count,
                    Stamper&& stamper) {
    const std::size_t base = static_cast<std::size_t>(p) * kPendingCap;
    std::size_t done = 0;
    while (done < count) {
      const std::size_t chunk = std::min(count - done, kPendingCap);
      for (std::size_t i = 0; i < chunk; ++i) {
        pending_[base + i].store(idxs[done + i] + 1, std::memory_order_seq_cst);
      }
      pending_count_[p].store(chunk, std::memory_order_seq_cst);
      park(p, kParkMidRetire);
      leases_->self_check(p);
      auto stamp = stamper();
      for (std::size_t i = 0; i < chunk; ++i) {
        stamp(idxs[done + i]);
        retire_onto(p, idxs[done + i]);
        // Slot i reached the retired list; clear it so a later sweep
        // cannot double-record it.
        pending_[base + i].store(0, std::memory_order_seq_cst);
      }
      pending_count_[p].store(0, std::memory_order_seq_cst);
      done += chunk;
    }
  }
  void retire_batch(int p, const std::uint64_t* idxs, std::size_t count) {
    retire_batch(p, idxs, count, [] { return [](std::uint64_t) {}; });
  }

  std::size_t retired_count(int p) const {
    return static_cast<std::size_t>(
        retired_count_[p].load(std::memory_order_relaxed));
  }

  // Moves every retiree `reusable` accepts to p's free list. Bounded by the
  // pool: after an expropriation this may be walking a list the victim was
  // mutating when it died — it must terminate even if the links are cyclic.
  template <class Reusable>
  void reclaim_retired(int p, Reusable&& reusable) {
    std::vector<std::uint64_t> keep;
    for (std::size_t seen = 0; seen < pool_; ++seen) {
      auto idx = lists_.pop(retired_head_[p]);
      if (!idx) break;
      if (reusable(*idx)) {
        release(p, *idx);
        retired_count_[p].fetch_sub(1, std::memory_order_relaxed);
      } else {
        keep.push_back(*idx);
      }
    }
    for (const std::uint64_t idx : keep) lists_.push(retired_head_[p], idx);
  }

  // q's half-finished retire(): the node its in_retire marker names, if any.
  std::optional<std::uint64_t> retiring(int q) const {
    const std::uint64_t w = in_retire_[q].load(std::memory_order_seq_cst);
    if (w == 0) return std::nullopt;
    return w - 1;
  }

  // Visits each still-set slot of q's staged retire_batch chunk:
  // visit(slot word, node index).
  template <class Visit>
  void for_each_staged(int q, Visit&& visit) {
    const std::uint64_t pc = pending_count_[q].load(std::memory_order_seq_cst);
    const std::size_t staged = static_cast<std::size_t>(
        std::min<std::uint64_t>(pc, kPendingCap));
    for (std::size_t i = 0; i < staged; ++i) {
      auto& slot = pending_[static_cast<std::size_t>(q) * kPendingCap + i];
      const std::uint64_t w = slot.load(std::memory_order_seq_cst);
      if (w != 0) visit(slot, w - 1);
    }
  }

  // The survivor side of the handshake over the pid-lease table: suspect a
  // dead-looking lease on one visit, confirm — re-probing liveness — on a
  // later one. The confirm winner p runs the reclaimer's own clean-up
  // on_confirmed(q) (clear guards / the announcement), drains q's book into
  // its own, and reaps the lease. Suspicion also fires on heartbeat
  // staleness (see the file comment).
  template <class OnConfirmed>
  void sweep_dead(int p, OnConfirmed&& on_confirmed) {
    for (int q = 0; q < n_; ++q) {
      if (q == p || !leases_->is_held(q)) continue;
      if (leases_->advance_death(q, stale_for(p, q)) ==
          reclaim::DeathStep::kConfirmed) {
        on_confirmed(q);
        drain_dead(p, q);
        leases_->reap(q);
      }
    }
  }

  reclaim::ReclaimStats stats() const {
    reclaim::ReclaimStats s;
    s.pool_size = pool_;
    for (int p = 0; p < n_; ++p) {
      s.retired_unreclaimed += retired_count(p);
      s.free_nodes += free_count(p);
      if (in_flight_[p].load(std::memory_order_relaxed) != 0) ++s.in_flight;
    }
    s.quarantined = static_cast<std::size_t>(
        quarantine_count_->load(std::memory_order_relaxed));
    s.expropriations = static_cast<std::size_t>(
        expropriations_->load(std::memory_order_relaxed));
    return s;
  }

  // Everything outside the simulator's announced-word signature that
  // decides the future: every book word (lists, markers, the pending
  // window, the guard slots), the process-local phases and heartbeat
  // history, and the lease table's own host words. All plain-atomic reads:
  // safe from the engine thread.
  void fingerprint_into(reclaim::Fingerprint& fp) const {
    lists_.fingerprint_into(pool_, fp);
    const auto count = static_cast<std::size_t>(n_);
    for (std::size_t p = 0; p < count; ++p) {
      fp.mix(free_head_[p].load(std::memory_order_seq_cst));
      fp.mix(free_count_[p].load(std::memory_order_seq_cst));
      fp.mix(retired_head_[p].load(std::memory_order_seq_cst));
      fp.mix(retired_count_[p].load(std::memory_order_seq_cst));
      fp.mix(in_flight_[p].load(std::memory_order_seq_cst));
      fp.mix(in_retire_[p].load(std::memory_order_seq_cst));
      fp.mix(pending_count_[p].load(std::memory_order_seq_cst));
      for (std::size_t i = 0; i < kPendingCap; ++i) {
        fp.mix(pending_[p * kPendingCap + i].load(std::memory_order_seq_cst));
      }
    }
    fp.mix(quarantine_head_->load(std::memory_order_seq_cst));
    fp.mix(quarantine_count_->load(std::memory_order_seq_cst));
    fp.mix(expropriations_->load(std::memory_order_seq_cst));
    for (std::size_t i = 0; i < slot_count_; ++i) fp.mix(slot_read(i));
    for (const auto& local : local_) {
      fp.mix(static_cast<std::uint64_t>(local.phase));
      fp.mix(static_cast<std::uint64_t>(local.alloc_resume));
    }
    fp.mix_range(hb_seen_);
    fp.mix(leases_->fingerprint());
  }

 private:
  using Word = std::atomic<std::uint64_t>;

  // The pool spans every index the structure may hand to retire(), not just
  // the initially-free ones — MsQueue's dummy node starts on no free list
  // but is retired (and must have a links_/stamps_ entry) once dequeued
  // past. Size by the highest index, so links_[idx] can never alias the
  // next arena placement.
  static std::size_t pool_of(const reclaim::FreeLists& initial) {
    std::size_t pool = 0;
    for (const auto& list : initial) {
      for (const std::uint64_t idx : list) {
        pool = std::max(pool, static_cast<std::size_t>(idx) + 1);
      }
    }
    return pool;
  }

  void release(int p, std::uint64_t idx) {
    lists_.push(free_head_[p], idx);
    free_count_[p].fetch_add(1, std::memory_order_relaxed);
  }

  void retire_onto(int p, std::uint64_t idx) {
    lists_.push(retired_head_[p], idx);
    retired_count_[p].fetch_add(1, std::memory_order_relaxed);
  }

  // Re-homes an orphan of q's half-finished retire onto q's retired list —
  // unless the crash landed after the push (then it is already there).
  void rehome(int q, std::uint64_t idx) {
    if (!lists_.contains(retired_head_[q], idx)) retire_onto(q, idx);
  }

  // Heartbeat staleness: p remembers the last heartbeat it saw per peer; a
  // peer whose heartbeat has not moved since p's previous sweep is
  // suspected (never confirmed) on staleness alone. See the file comment.
  bool stale_for(int p, int q) {
    const std::size_t at =
        static_cast<std::size_t>(p) * static_cast<std::size_t>(n_) +
        static_cast<std::size_t>(q);
    const std::uint64_t hb = leases_->heartbeat(q);
    const bool stale = hb_seen_[at] != 0 && hb_seen_[at] == hb;
    hb_seen_[at] = hb;
    return stale;
  }

  // Resolves a dead q's crash markers and splices its lists into p's.
  // Caller (the confirm winner) must have exclusive ownership of q.
  void drain_dead(int p, int q) {
    // Half-finished retire: the marked node may never have reached q's
    // retired list.
    if (const auto idx = retiring(q)) {
      rehome(q, *idx);
      in_retire_[q].store(0, std::memory_order_seq_cst);
    }
    // Half-finished retire_batch: every still-set pending slot names a node
    // that was unlinked by q but may never have reached its retired list —
    // rehome's contains() probe filters the one the crash caught between
    // the list push and the slot clear. Bounded work: at most kPendingCap
    // probes per crash.
    for_each_staged(q, [&](Word& slot, std::uint64_t idx) {
      rehome(q, idx);
      slot.store(0, std::memory_order_seq_cst);
    });
    pending_count_[q].store(0, std::memory_order_seq_cst);
    // Half-finished allocate: still on the free list means the crash hit
    // between intent and unlink (the splice below recovers it); otherwise
    // the node may be linked into the structure — quarantine, never free.
    const std::uint64_t mf = in_flight_[q].load(std::memory_order_seq_cst);
    if (mf != 0) {
      if (!lists_.contains(free_head_[q], mf - 1)) {
        if (mutation_ == reclaim::LeaseMutation::kNoQuarantine) {
          // The mutant: put the ambiguous node straight back into
          // circulation. If the kill landed after the linking CAS the node
          // is still reachable from the structure — reallocating it is the
          // double-free the quarantine exists to prevent.
          release(q, mf - 1);
        } else {
          // The quarantine head is the one list with concurrent pushers
          // (confirm winners of *different* victims), so it takes the CAS
          // push, not the single-owner one.
          lists_.push_shared(*quarantine_head_, mf - 1);
          quarantine_count_->fetch_add(1, std::memory_order_relaxed);
        }
      }
      in_flight_[q].store(0, std::memory_order_seq_cst);
    }
    const std::uint64_t moved_retired =
        lists_.splice(retired_head_[q], retired_head_[p]);
    retired_count_[q].store(0, std::memory_order_relaxed);
    retired_count_[p].fetch_add(moved_retired, std::memory_order_relaxed);
    const std::uint64_t moved_free =
        lists_.splice(free_head_[q], free_head_[p]);
    free_count_[q].store(0, std::memory_order_relaxed);
    free_count_[p].fetch_add(moved_free, std::memory_order_relaxed);
    expropriations_->fetch_add(1, std::memory_order_relaxed);
  }

  // Process-local per-lease state: the protocol phase, the phase the
  // kMidAllocate window resumes to at commit, and the reclaimer's extension.
  struct Local : Ext {
    reclaim::ReclaimPhase phase = reclaim::ReclaimPhase::kIdle;
    reclaim::ReclaimPhase alloc_resume = reclaim::ReclaimPhase::kIdle;
  };

  Leases* leases_;
  int n_;
  std::size_t pool_;
  detail::NodeLists lists_;
  reclaim::LeaseMutation mutation_;
  Word* free_head_;       // [n]
  Word* free_count_;      // [n]
  Word* retired_head_;    // [n]
  Word* retired_count_;   // [n]
  Word* in_flight_;       // [n], idx+1 or 0.
  Word* in_retire_;       // [n], idx+1 or 0.
  Word* pending_;         // [n * kPendingCap], idx+1 or 0.
  Word* pending_count_;   // [n], staged chunk size.
  Word* quarantine_head_;
  Word* quarantine_count_;
  Word* expropriations_;
  Word* slots_ = nullptr;  // [slot_count_], idx+1 or 0.
  std::size_t slot_count_ = 0;
  std::vector<Local> local_;
  std::vector<std::uint64_t> hb_seen_;  // [n*n]: last heartbeat p saw of q.
};

// ------------------------------------------------------- hazard (leased)

// Michael-style hazard pointers over the shared arena: the one hazard
// algorithm (reclaim/hazard_pointer.h) over SharedBook. The cached mode's
// guard cache is process-local, so after a crash the expropriator clears
// the authoritative shared slots, not the cache. The platform argument
// names the word model — arena words are ShmPlatform words on every host.
template <bool kCached, class Env>
using LeasedHazard = reclaim::HazardPointerReclaimer<
    ShmPlatform,
    std::conditional_t<kCached, reclaim::CachedGuards, reclaim::EagerGuards>,
    SharedBook<Env>>;

using LeasedHazardReclaimer = LeasedHazard<false, ShmPlatform::Env>;
using LeasedCachedHazardReclaimer = LeasedHazard<true, ShmPlatform::Env>;

// -------------------------------------------------------- epoch (leased)

// Epoch-based reclamation over the shared arena: per-lease announcements
// against a global epoch; a retired node frees two advances after its
// stamp. A dead process's frozen announcement would block the advance
// forever — the sweep inside try_advance expropriates it instead (clears
// the announcement, splices the limbo; stamps live in a per-node array, so
// they travel with the nodes). The lease duties and the lists are
// SharedBook's; the epoch rules below are this tier's own (its begin_op
// announces without validating and its advance tests a >= e, unlike
// reclaim/epoch.h).
template <class E = ShmPlatform::Env>
class LeasedEpochReclaimerT {
 public:
  using Env = E;

  static constexpr const char* kName = "leased_epoch";
  static constexpr bool kNeedsGuard = false;
  static constexpr std::uint64_t kQuiescent = 0;
  static constexpr std::size_t kAdvanceEvery = 4;

  LeasedEpochReclaimerT(Env& env, int n, reclaim::FreeLists initial_free)
      : book_(env, n, initial_free, /*slots_per_process=*/0) {
    global_ = env.arena->template place<std::atomic<std::uint64_t>>("ep.global");
    announce_ = env.arena->template place_array<std::atomic<std::uint64_t>>(
        "ep.announce", static_cast<std::size_t>(n));
    stamps_ = env.arena->template place_array<std::atomic<std::uint64_t>>(
        "ep.stamps", book_.pool_size());
    if (env.owner) global_->store(1, std::memory_order_seq_cst);
  }

  void begin_op(int p) {
    book_.enter(p);
    announce_[p].store(global_->load(std::memory_order_seq_cst),
                       std::memory_order_seq_cst);
    book_.set_phase(p, reclaim::ReclaimPhase::kEpochAnnounced);
    book_.park(p, kParkEpochAnnounced);
  }

  void guard(int /*p*/, int /*slot*/, std::uint64_t /*idx*/) {}

  void end_op(int p) {
    announce_[p].store(kQuiescent, std::memory_order_seq_cst);
    book_.set_phase(p, reclaim::ReclaimPhase::kIdle);
  }

  std::optional<std::uint64_t> allocate(int p) {
    book_.enter(p);
    if (book_.free_empty(p)) {
      try_advance(p);
      collect(p);
    }
    return book_.take_free(p);
  }

  void commit(int p) { book_.commit(p); }

  void retire(int p, std::uint64_t idx) {
    book_.enter(p);
    const reclaim::ReclaimPhase resume = book_.phase(p);
    book_.set_phase(p, reclaim::ReclaimPhase::kMidRetire);
    // The stamp is written after the mid-retire park (see the re-stamp in
    // try_advance's sweep).
    book_.retire(p, idx, [&] {
      stamps_[idx].store(global_->load(std::memory_order_seq_cst),
                         std::memory_order_seq_cst);
    });
    if (book_.retired_count(p) % kAdvanceEvery == 0) {
      try_advance(p);
      collect(p);
    }
    book_.set_phase(p, resume);
  }

  // Batch hand-off: each chunk is staged in the shm pending window before
  // any node is stamped or listed, the whole chunk is stamped under ONE
  // global-epoch read, and the whole batch pays one advance+collect.
  void retire_batch(int p, const std::uint64_t* idxs, std::size_t count) {
    book_.enter(p);
    const reclaim::ReclaimPhase resume = book_.phase(p);
    book_.set_phase(p, reclaim::ReclaimPhase::kMidRetire);
    book_.retire_batch(p, idxs, count, [&] {
      const std::uint64_t g = global_->load(std::memory_order_seq_cst);
      return [this, g](std::uint64_t idx) {
        stamps_[idx].store(g, std::memory_order_seq_cst);
      };
    });
    if (count != 0) {
      try_advance(p);
      collect(p);
    }
    book_.set_phase(p, resume);
  }

  // Advances the global epoch if every live announcement is current; every
  // advance attempt first sweeps all dead-looking leases (two-phase), so a
  // crash can stall the epoch for at most two survivor attempts. The sweep
  // covers every held lease, not just stale announcers: the structures
  // retire *after* end_op, so a process killed mid-retire has a quiescent
  // announcement but an orphaned in-retire node plus limbo and free lists.
  std::uint64_t try_advance(int p) {
    book_.sweep_dead(p, [this](int q) { unfreeze(q); });
    const std::uint64_t e = global_->load(std::memory_order_seq_cst);
    for (int q = 0; q < book_.size(); ++q) {
      const std::uint64_t a = announce_[q].load(std::memory_order_seq_cst);
      if (a == kQuiescent || a >= e) continue;
      return e;  // A live (or not-yet-confirmed) holdout pins the epoch.
    }
    std::uint64_t expected = e;
    global_->compare_exchange_strong(expected, e + 1, std::memory_order_seq_cst,
                                     std::memory_order_seq_cst);
    return global_->load(std::memory_order_seq_cst);
  }

  // Frees p's limbo nodes whose stamp is two epochs behind.
  void collect(int p) {
    const std::uint64_t g = global_->load(std::memory_order_seq_cst);
    book_.reclaim_retired(p, [&](std::uint64_t idx) {
      return stamps_[idx].load(std::memory_order_seq_cst) + 2 <= g;
    });
  }

  std::size_t pool_size() const { return book_.pool_size(); }
  std::size_t unreclaimed(int p) const { return book_.retired_count(p); }

  reclaim::ReclaimStats stats() const {
    reclaim::ReclaimStats s = book_.stats();
    const std::uint64_t g = global_->load(std::memory_order_seq_cst);
    for (int q = 0; q < book_.size(); ++q) {
      const std::uint64_t a = announce_[q].load(std::memory_order_seq_cst);
      if (a != kQuiescent && g > a && g - a > s.epoch_lag) s.epoch_lag = g - a;
    }
    return s;
  }

  reclaim::ReclaimPhase phase(int p) const { return book_.phase(p); }

  std::uint64_t fingerprint() const {
    reclaim::Fingerprint fp;
    book_.fingerprint_into(fp);
    fp.mix(global_->load(std::memory_order_seq_cst));
    for (int q = 0; q < book_.size(); ++q) {
      fp.mix(announce_[q].load(std::memory_order_seq_cst));
    }
    for (std::size_t i = 0; i < book_.pool_size(); ++i) {
      fp.mix(stamps_[i].load(std::memory_order_seq_cst));
    }
    return fp.value();
  }

 private:
  // The sweep confirmed q dead: clear its frozen announcement before the
  // book drains it.
  void unfreeze(int q) {
    announce_[q].store(kQuiescent, std::memory_order_seq_cst);
    // A victim killed inside retire() or retire_batch() can leave nodes
    // marked (in_retire, or staged in its pending window) whose stamps were
    // never written — both stamp AFTER the mid-retire park — so the
    // stale/zero stamp would pass collect()'s two-epoch grace test
    // immediately, freeing a node that readers announced in earlier epochs
    // may still hold. Re-stamp with the current global epoch before the
    // drain re-homes them, so the orphans wait a full grace period like any
    // other retiree (the in-process EpochBasedReclaimer::expropriate
    // re-records its orphans with the current epoch for the same reason).
    // The kNoRestamp lease mutant removes exactly this decision.
    if (book_.mutation() == reclaim::LeaseMutation::kNoRestamp) return;
    const std::uint64_t g = global_->load(std::memory_order_seq_cst);
    if (const auto idx = book_.retiring(q)) {
      stamps_[*idx].store(g, std::memory_order_seq_cst);
    }
    book_.for_each_staged(q, [&](auto& /*slot*/, std::uint64_t idx) {
      stamps_[idx].store(g, std::memory_order_seq_cst);
    });
  }

  SharedBook<Env> book_;
  std::atomic<std::uint64_t>* global_;
  std::atomic<std::uint64_t>* announce_;  // [n], kQuiescent or the epoch.
  std::atomic<std::uint64_t>* stamps_;    // [pool], retire-time epoch.
};

using LeasedEpochReclaimer = LeasedEpochReclaimerT<>;

static_assert(reclaim::ReclaimerFor<LeasedHazardReclaimer, ShmPlatform>);
static_assert(reclaim::ReclaimerFor<LeasedCachedHazardReclaimer, ShmPlatform>);
static_assert(reclaim::ReclaimerFor<LeasedEpochReclaimer, ShmPlatform>);

}  // namespace aba::shm
