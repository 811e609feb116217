// PidLeaseTable — heartbeat-stamped pid leases over shared memory, with the
// two-phase suspect/confirm death handshake.
//
// Every process that operates on a cross-process structure first acquires a
// lease slot; the slot index IS the process id `p` it passes to the
// structure, so everything a process publishes — hazard guards, epoch
// announcements, its free/retired list heads, its in-flight allocation
// marker — is covered by exactly one lease. The lease record carries:
//
//   state+generation — one packed atomic word driving the death protocol:
//       kFree -> kLive (acquire), kLive -> kSuspect (a survivor that
//       observed the pid dead or the heartbeat stale), kSuspect -> kLive
//       (the VETO: a falsely-suspected live process clears itself at its
//       next reclaimer entry point), kSuspect -> kDead (confirm; CAS-
//       serialized so exactly one survivor wins the right to expropriate),
//       kDead -> kFree (the winner, after draining — generation bumps so a
//       recycled slot is distinguishable from its previous life).
//   pid + heartbeat — liveness evidence. kill(pid, 0) failing with ESRCH is
//       definitive death; a *stale heartbeat alone only suspects* — it can
//       never confirm, because a slow or stopped process is not a dead one.
//       This split plus the veto is the false-suspicion safety story: the
//       worst a wrong suspicion does is one extra CAS by the suspect.
//   suspect_hb — the heartbeat value observed at suspicion time; confirm
//       additionally requires the heartbeat unchanged since, which closes
//       the pid-recycling hole (a new process wearing the dead pid cannot
//       resurrect the lease, and a revived heartbeat cancels the suspicion).
//       The *slot*-recycling hole is closed by the generation: acquire()
//       records the generation it installed (process-locally) and every
//       self_check/beat verifies the word still wears it — a slot that was
//       confirmed, reaped, and reacquired by someone else reads kLive but a
//       generation the original owner never installed, so the original
//       owner self-fences with LeaseRevoked instead of operating on the
//       new owner's lease.
//   park point — a test-only rendezvous: the crash harness asks a worker to
//       spin at a named vulnerable instant (guard just published, epoch just
//       announced, mid-retire, in-flight commit pending) so the driver can
//       SIGKILL it exactly there.
//
// Why two phases at all, when kill(pid, 0) looks definitive? Because the
// suspect edge is also driven by heartbeat staleness (a wedged NFS mount, a
// SIGSTOP), and because between a survivor's liveness probe and its
// expropriating CAS the world can change. Confirming only from kSuspect —
// re-probing liveness and re-reading the heartbeat — means a live process
// always gets a full scan interval to veto before anyone touches its state.
//
// Host policy. The protocol itself (PidLeaseTableT) is templated over a
// Host that supplies the lease words, the liveness probe, the identity the
// acquire path stamps, and the park seam:
//
//   std::uint64_t state(int slot) const;            // packed state+gen
//   bool cas_state(int slot, std::uint64_t expected,
//                  std::uint64_t desired) const;
//   void set_state(int slot, std::uint64_t v) const;
//   std::int64_t pid(int slot) const;  void set_pid(int, std::int64_t) const;
//   std::uint64_t heartbeat(int) const; void set_heartbeat(int, v) const;
//   std::uint64_t suspect_hb(int) const; void set_suspect_hb(int, v) const;
//   bool alive(std::int64_t pid) const;             // definitive probe
//   std::int64_t self_pid() const;                  // stamped by acquire()
//   void park(int slot, std::uint64_t point) const; // instrumented instant
//   bool preseeded() const;      // all slots pre-acquired (gen 1) at build
//   void fingerprint_into(reclaim::Fingerprint&) const;  // engine-side peek
//
// ShmLeaseHost (below) is the production host: LeaseRecord array in the
// shared arena (the placement sequence is part of the segment layout hash
// and must stay byte-identical), kill(pid, 0) liveness, ::getpid identity,
// and the park_request/park_ack spin rendezvous. sim/sim_lease.h hosts the
// same protocol on SimPlatform words so the model checker can search the
// suspect/confirm/veto CASes as first-class schedulable steps, and
// shm/lease_hosts.h hosts it on plain heap words for single-process
// (thread-per-lease) determinism tests.
#pragma once

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <utility>
#include <vector>

#include "reclaim/death.h"
#include "reclaim/mutant.h"
#include "reclaim/reclaimer.h"
#include "shm/shm_platform.h"
#include "util/assert.h"
#include "util/cacheline.h"

namespace aba::shm {

// Lease states (low 8 bits of the packed state word).
inline constexpr std::uint64_t kLeaseFree = 0;
inline constexpr std::uint64_t kLeaseLive = 1;
inline constexpr std::uint64_t kLeaseSuspect = 2;
inline constexpr std::uint64_t kLeaseDead = 3;

// Park points (reclaim/death.h): a crash-harness worker whose park_request
// names one spins there until killed or released.
using reclaim::kParkEpochAnnounced;
using reclaim::kParkGuardPublished;
using reclaim::kParkInFlight;
using reclaim::kParkMidRetire;
using reclaim::kParkNone;

struct alignas(util::kCacheLineSize) LeaseRecord {
  // state in bits [0,8), generation above. One word so every transition is
  // one CAS and a generation check rides along for free.
  std::atomic<std::uint64_t> state_gen{kLeaseFree};
  std::atomic<std::int64_t> pid{0};
  std::atomic<std::uint64_t> heartbeat{0};
  std::atomic<std::uint64_t> suspect_hb{0};
  std::atomic<std::uint64_t> park_request{kParkNone};
  std::atomic<std::uint64_t> park_ack{kParkNone};

  static constexpr std::uint64_t state_of(std::uint64_t word) {
    return word & 0xff;
  }
  static constexpr std::uint64_t gen_of(std::uint64_t word) { return word >> 8; }
  static constexpr std::uint64_t pack(std::uint64_t state, std::uint64_t gen) {
    return (gen << 8) | state;
  }
};

inline bool pid_alive(std::int64_t pid) {
  if (pid <= 0) return false;
  // EPERM means "exists but not ours" — alive for our purposes.
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

// The production host: records in the shared arena, real pids, real kill(2)
// probes, and the spin-park rendezvous the fork/SIGKILL harness drives.
class ShmLeaseHost {
 public:
  ShmLeaseHost(ShmArena& arena, int max_procs)
      : records_(arena.place_array<LeaseRecord>(
            "lease.records", static_cast<std::size_t>(max_procs))),
        max_procs_(max_procs) {}

  std::uint64_t state(int slot) const {
    return records_[slot].state_gen.load(std::memory_order_acquire);
  }
  bool cas_state(int slot, std::uint64_t expected,
                 std::uint64_t desired) const {
    return records_[slot].state_gen.compare_exchange_strong(
        expected, desired, std::memory_order_acq_rel);
  }
  void set_state(int slot, std::uint64_t v) const {
    records_[slot].state_gen.store(v, std::memory_order_release);
  }
  std::int64_t pid(int slot) const {
    return records_[slot].pid.load(std::memory_order_acquire);
  }
  void set_pid(int slot, std::int64_t v) const {
    records_[slot].pid.store(v, std::memory_order_release);
  }
  std::uint64_t heartbeat(int slot) const {
    return records_[slot].heartbeat.load(std::memory_order_acquire);
  }
  void set_heartbeat(int slot, std::uint64_t v) const {
    records_[slot].heartbeat.store(v, std::memory_order_release);
  }
  std::uint64_t suspect_hb(int slot) const {
    return records_[slot].suspect_hb.load(std::memory_order_acquire);
  }
  void set_suspect_hb(int slot, std::uint64_t v) const {
    records_[slot].suspect_hb.store(v, std::memory_order_release);
  }

  bool alive(std::int64_t pid) const { return pid_alive(pid); }
  std::int64_t self_pid() const { return ::getpid(); }
  bool preseeded() const { return false; }

  // Test-only rendezvous (see the park-point constants): a worker whose
  // lease requests exactly `point` spins there — with its guard /
  // announcement / in-retire marker still published — until the driver
  // SIGKILLs it or clears the request.
  void park(int slot, std::uint64_t point) const {
    LeaseRecord& rec = records_[slot];
    if (rec.park_request.load(std::memory_order_acquire) != point) return;
    rec.park_ack.store(point, std::memory_order_release);
    while (rec.park_request.load(std::memory_order_acquire) == point) {
      ::usleep(100);  // Parked: the driver kills or releases us.
    }
    rec.park_ack.store(kParkNone, std::memory_order_release);
  }

  void fingerprint_into(reclaim::Fingerprint& fp) const {
    for (int slot = 0; slot < max_procs_; ++slot) {
      fp.mix(state(slot));
      fp.mix(static_cast<std::uint64_t>(pid(slot)));
      fp.mix(heartbeat(slot));
      fp.mix(suspect_hb(slot));
    }
  }

  LeaseRecord& record(int slot) const { return records_[slot]; }

 private:
  LeaseRecord* records_;
  int max_procs_;
};

// The death protocol over any Host (see the file comment for the Host
// requirements). All transition logic — acquire/release, beat, the
// self-fence, the two-phase suspect/confirm advance, reap — lives here
// exactly once; the hosts only differ in where the words live, what
// "alive" means, and what a park point does.
template <class Host>
class PidLeaseTableT {
 public:
  PidLeaseTableT(Host host, int max_procs,
                 reclaim::LeaseMutation mutation = reclaim::LeaseMutation::kNone)
      : host_(std::move(host)),
        my_gen_(static_cast<std::size_t>(max_procs), 0),
        max_procs_(max_procs),
        mutation_(mutation) {
    if (host_.preseeded()) {
      // Every slot was built already-acquired (state kLive, generation 1) —
      // the sim host's construction-time seeding, since announced word
      // traffic from the engine thread would deadlock the step protocol.
      for (auto& g : my_gen_) g = 1;
    }
  }

  // Claims a free slot for this process. The slot index doubles as the
  // structure pid. ABA_CHECK-fails when the table is full.
  int acquire() {
    for (int slot = 0; slot < max_procs_; ++slot) {
      const std::uint64_t word = host_.state(slot);
      if (LeaseRecord::state_of(word) != kLeaseFree) continue;
      const std::uint64_t next =
          LeaseRecord::pack(kLeaseLive, LeaseRecord::gen_of(word) + 1);
      if (host_.cas_state(slot, word, next)) {
        my_gen_[static_cast<std::size_t>(slot)] = LeaseRecord::gen_of(next);
        host_.set_pid(slot, host_.self_pid());
        host_.set_heartbeat(slot, 1);
        return slot;
      }
    }
    ABA_CHECK_MSG(false, "pid-lease table full");
    return -1;
  }

  // Clean exit: the slot becomes acquirable again (generation bumps). A
  // no-op when the lease is no longer this owner's to free — already
  // expropriated and reaped (possibly reacquired: generation mismatch), or
  // confirmed kDead with the winner mid-drain.
  void release(int slot) {
    const std::uint64_t word = host_.state(slot);
    if (!gen_current(slot, word)) return;
    const std::uint64_t state = LeaseRecord::state_of(word);
    if (state != kLeaseLive && state != kLeaseSuspect) return;
    my_gen_[static_cast<std::size_t>(slot)] = 0;
    free_slot(slot, word);
  }

  // Liveness proof, called from every reclaimer entry point. Cheap: one
  // load plus one store on my own cache line (single-writer). Throws
  // LeaseRevoked if the slot has been recycled under us (generation
  // mismatch) so a fenced owner can't pollute the new owner's heartbeat.
  void beat(int slot) {
    if (!gen_current(slot, host_.state(slot))) throw reclaim::LeaseRevoked{};
    host_.set_heartbeat(slot, host_.heartbeat(slot) + 1);
  }

  // The self-fence side of the handshake, called from every reclaimer entry
  // point before touching shared bookkeeping. Vetoes a false suspicion
  // (kSuspect -> kLive); throws reclaim::LeaseRevoked once expropriation is
  // confirmed — the process must stop using the structure (its lists now
  // belong to the expropriator).
  void self_check(int slot) {
    std::uint64_t word = host_.state(slot);
    // Generation first: a kLive word wearing a generation we never
    // installed is someone else's lease on a recycled slot, not ours.
    if (!gen_current(slot, word)) throw reclaim::LeaseRevoked{};
    const std::uint64_t state = LeaseRecord::state_of(word);
    if (state == kLeaseLive) return;
    if (state == kLeaseSuspect) {
      const std::uint64_t veto =
          LeaseRecord::pack(kLeaseLive, LeaseRecord::gen_of(word));
      if (host_.cas_state(slot, word, veto)) {
        return;  // Vetoed; the suspicion evaporates.
      }
      word = host_.state(slot);
      if (gen_current(slot, word) &&
          LeaseRecord::state_of(word) == kLeaseLive) {
        return;
      }
    }
    throw reclaim::LeaseRevoked{};
  }

  // Survivor-side death advance for slot q (reclaim/death.h semantics over
  // the packed lease word):
  //   kSuspected          — q looked dead; suspicion recorded. Come back.
  //   kConfirmed          — this caller won the confirm CAS: it now owns
  //                         q's bookkeeping and MUST drain it, then reap(q).
  //   kVetoed / kAlreadyExpropriated — nothing to do here.
  // Staleness: `stale` is the caller's judgement that q's heartbeat has not
  // moved across its own scan interval; it can only *suspect*. Confirmation
  // requires the pid actually gone AND the heartbeat unchanged since
  // suspicion (pid-recycling guard) — unless this table was built with the
  // kStaleConfirm mutation, which skips that second pass (the lease-mutant
  // zoo; never shipped).
  reclaim::DeathStep advance_death(int q, bool stale = false) {
    const std::uint64_t word = host_.state(q);
    const std::uint64_t state = LeaseRecord::state_of(word);
    if (state != kLeaseLive && state != kLeaseSuspect) {
      return reclaim::DeathStep::kAlreadyExpropriated;
    }
    const std::int64_t pid = host_.pid(q);
    // pid == 0 is the acquire window (kLive published, pid store still in
    // flight) or a racing release — indeterminate, never "definitively
    // gone": suspecting here could confirm a freshly-acquired live lease.
    if (pid <= 0) return reclaim::DeathStep::kVetoed;
    const bool gone = !host_.alive(pid);
    if (state == kLeaseLive) {
      if (!gone && !stale) return reclaim::DeathStep::kVetoed;
      const std::uint64_t hb = host_.heartbeat(q);
      const std::uint64_t next =
          LeaseRecord::pack(kLeaseSuspect, LeaseRecord::gen_of(word));
      if (host_.cas_state(q, word, next)) {
        host_.set_suspect_hb(q, hb);
        return reclaim::DeathStep::kSuspected;
      }
      return reclaim::DeathStep::kVetoed;
    }
    // kSuspect: confirm only on definitive evidence — except under the
    // kStaleConfirm mutation, which treats the recorded suspicion as
    // sufficient and confirms without re-probing liveness or the heartbeat.
    if (mutation_ != reclaim::LeaseMutation::kStaleConfirm) {
      if (!gone) return reclaim::DeathStep::kVetoed;
      if (host_.heartbeat(q) != host_.suspect_hb(q)) {
        return reclaim::DeathStep::kVetoed;
      }
    }
    const std::uint64_t next =
        LeaseRecord::pack(kLeaseDead, LeaseRecord::gen_of(word));
    if (host_.cas_state(q, word, next)) {
      return reclaim::DeathStep::kConfirmed;
    }
    return reclaim::DeathStep::kAlreadyExpropriated;
  }

  // Called by the confirm winner after it has drained q's bookkeeping: the
  // slot re-enters circulation. Unconditional — the winner's kDead CAS gave
  // it exclusive ownership of the slot (unlike release, which must prove
  // the lease is still the caller's).
  void reap(int q) { free_slot(q, host_.state(q)); }

  bool is_live(int slot) const {
    return LeaseRecord::state_of(host_.state(slot)) == kLeaseLive;
  }
  bool is_held(int slot) const {
    const std::uint64_t s = LeaseRecord::state_of(host_.state(slot));
    return s == kLeaseLive || s == kLeaseSuspect;
  }

  // The staleness-suspicion evidence reader (leased_reclaimer.h tracks the
  // last value it saw per peer and passes `stale` to advance_death when a
  // scan interval leaves it unmoved).
  std::uint64_t heartbeat(int slot) const { return host_.heartbeat(slot); }

  int max_procs() const { return max_procs_; }

  // The instrumented-park seam (see the park-point constants). What it does
  // is the host's business: spin-rendezvous on shm, one announced
  // (schedulable, crashable) step in the simulator, nothing on the plain
  // thread host.
  void maybe_park(int slot, std::uint64_t point) { host_.park(slot, point); }

  // Engine-side peek over every lease word the host holds outside the
  // simulator's signature, for the DPOR state key. Never announces.
  std::uint64_t fingerprint() const {
    reclaim::Fingerprint fp;
    host_.fingerprint_into(fp);
    fp.mix_range(my_gen_);
    return fp.value();
  }

  Host& host() { return host_; }
  const Host& host() const { return host_; }

 private:
  // True when the caller either holds no local claim on `slot` (never
  // acquired through this table instance) or the word still wears the
  // generation it installed.
  bool gen_current(int slot, std::uint64_t word) const {
    const std::uint64_t mine = my_gen_[static_cast<std::size_t>(slot)];
    return mine == 0 || LeaseRecord::gen_of(word) == mine;
  }

  void free_slot(int slot, std::uint64_t word) {
    host_.set_pid(slot, 0);
    host_.set_state(slot,
                    LeaseRecord::pack(kLeaseFree, LeaseRecord::gen_of(word) + 1));
  }

  Host host_;
  // Process-local: the generation this process installed per slot it
  // acquired (0 = no claim). The fence against slot recycling. On a
  // preseeded host every slot reads generation 1 — the sim "processes" are
  // threads sharing this one instance, each the installed owner of its own
  // slot.
  std::vector<std::uint64_t> my_gen_;
  int max_procs_;
  reclaim::LeaseMutation mutation_;
};

// The production table: the shm host over the segment arena, with the
// record() accessor the crash harness drives the park protocol through.
class PidLeaseTable : public PidLeaseTableT<ShmLeaseHost> {
 public:
  // Places (creator) or binds (attacher) the record array in the arena.
  PidLeaseTable(ShmArena& arena, int max_procs)
      : PidLeaseTableT<ShmLeaseHost>(ShmLeaseHost(arena, max_procs),
                                     max_procs) {}

  LeaseRecord& record(int slot) { return host().record(slot); }
};

}  // namespace aba::shm
