// LocalBook — the in-process tier's reclaimer bookkeeping, as a Book policy.
//
// A Book is where a reclaimer's bookkeeping lives; the algorithms (hazard
// guard/scan in hazard_pointer.h, the epoch rules in epoch.h) are written
// against its verbs: enter/park (entry-point self-check, crash junctures),
// the free list, the retired list, guard slots, the two-phase dead-process
// sweep, and the engine-side phase/stats/fingerprint. LocalBook keeps it
// all in thread-private memory with P::Register guard slots and the
// PlatformFenceT<P> fence pair; SharedBook (shm/leased_reclaimer.h) is the
// shm tier's arena-resident, lease-covered twin. A reclaimer's own
// per-process state rides along as Ext (rebound through With<Ext>) in the
// same cache-line-padded record, so a steady-state op touches one record.
#pragma once

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

struct NoExt {};

template <Platform P, class Ext = NoExt>
class LocalBook {
 public:
  using Env = typename P::Env;
  using Fence = PlatformFenceT<P>;
  template <class E>
  using With = LocalBook<P, E>;
  static constexpr bool kLeased = false;
  // One address space: a survivor reads a dead process's thread-private
  // mirrors directly (SharedBook's survivor has only the arena words).
  static constexpr bool kPeerMirrorsVisible = true;

  LocalBook(Env& env, int n, FreeLists initial_free, int slots_per_process)
      : n_(n), procs_(static_cast<std::size_t>(n)) {
    ABA_CHECK(static_cast<int>(initial_free.size()) == n);
    for (int p = 0; p < n; ++p) {
      procs_[p].free = std::move(initial_free[p]);
      pool_size_ += procs_[p].free.size();
    }
    const int slots = n * slots_per_process;
    slots_.reserve(static_cast<std::size_t>(slots));
    for (int i = 0; i < slots; ++i) {
      slots_.push_back(std::make_unique<typename P::Register>(
          env, "hp.slot", 0, sim::BoundSpec::unbounded()));
    }
  }

  // Installs the liveness oracle that arms the expropriation paths. Not a
  // transfer of ownership; pass nullptr to disarm. Call before any process
  // operates (the pointer itself is not synchronized).
  void set_death_oracle(const DeathOracle* oracle) { oracle_ = oracle; }

  int size() const { return n_; }
  Ext& ext(int p) { return procs_[p]; }
  const Ext& ext(int p) const { return procs_[p]; }
  ReclaimPhase phase(int p) const { return procs_[p].phase; }
  void set_phase(int p, ReclaimPhase phase) { procs_[p].phase = phase; }

  // Entry-point self-check: veto a false suspicion, self-fence (throw
  // LeaseRevoked) once expropriated.
  void enter(int p) { death_self_check(procs_[p].death); }
  // Crash junctures are a shared-tier notion; here they cost nothing.
  void park(int /*p*/, std::uint64_t /*point*/) {}

  std::size_t slot_count() const { return slots_.size(); }
  std::uint64_t slot_read(std::size_t i) { return slots_[i]->read(); }
  void slot_write(std::size_t i, std::uint64_t word) { slots_[i]->write(word); }

  bool free_empty(int p) const { return procs_[p].free.empty(); }
  std::size_t free_count(int p) const { return procs_[p].free.size(); }

  // Pops p's next free node and marks it in flight: if p dies before its
  // linking CAS commits, an expropriator quarantines it instead of freeing.
  std::optional<std::uint64_t> take_free(int p) {
    auto& rec = procs_[p];
    if (rec.free.empty()) return std::nullopt;
    const std::uint64_t idx = rec.free.front();
    rec.free.pop_front();
    rec.in_flight = idx + 1;
    return idx;
  }

  // The structure's linking CAS for p's in-flight node just succeeded.
  void commit(int p) { procs_[p].in_flight = 0; }
  void release(int p, std::uint64_t idx) { procs_[p].free.push_back(idx); }

  // The in-retire marker: p's unlinked-but-unrecorded retiree, for a
  // retire whose recording takes a shared step p can die at (the eager
  // epoch's stamp read). The expropriating reclaimer re-records it.
  void mark_retiring(int p, std::uint64_t idx) {
    procs_[p].in_retire = idx + 1;
  }
  void clear_retiring(int p) { procs_[p].in_retire = 0; }
  std::optional<std::uint64_t> retiring(int q) const {
    if (procs_[q].in_retire == 0) return std::nullopt;
    return procs_[q].in_retire - 1;
  }

  // The retired list is the hazard family's; the epoch family keeps its
  // stamped limbo in its own extension and leaves this list empty.
  void retire(int p, std::uint64_t idx) { procs_[p].retired.push_back(idx); }
  void retire_batch(int p, const std::uint64_t* idxs, std::size_t count) {
    procs_[p].retired.insert(procs_[p].retired.end(), idxs, idxs + count);
  }
  std::size_t retired_count(int p) const { return procs_[p].retired.size(); }

  // Moves every retiree `reusable` accepts to p's free list, keeping the
  // rest in order.
  template <class Reusable>
  void reclaim_retired(int p, Reusable&& reusable) {
    auto& rec = procs_[p];
    std::vector<std::uint64_t> keep;
    keep.reserve(rec.retired.size());
    for (const std::uint64_t idx : rec.retired) {
      if (reusable(idx)) {
        rec.free.push_back(idx);
      } else {
        keep.push_back(idx);
      }
    }
    rec.retired = std::move(keep);
  }

  // Two-phase dead-process sweep (reclaim/death.h): suspect a dead-looking
  // process on one visit, confirm — re-consulting the oracle — on a later
  // one. The confirm CAS winner p runs the reclaimer's own clean-up
  // on_confirmed(q), then drains q's book into its own. With no oracle (or
  // no deaths) this performs no shared steps, which is what keeps the
  // committed schedule corpus bit-identical. p < 0 (an engine-side caller)
  // never expropriates.
  template <class OnConfirmed>
  void sweep_dead(int p, OnConfirmed&& on_confirmed) {
    if (oracle_ == nullptr || p < 0) return;
    for (int q = 0; q < n_; ++q) {
      if (q == p || !oracle_->is_dead(q)) continue;
      if (advance_death(procs_[q].death) == DeathStep::kConfirmed) {
        on_confirmed(q);
        drain(p, q);
      }
    }
  }

  std::size_t pool_size() const { return pool_size_; }

  // Engine-side observability (reclaimer.h): thread-private reads only.
  ReclaimStats stats() const {
    ReclaimStats s;
    s.pool_size = pool_size_;
    for (const auto& rec : procs_) {
      s.retired_unreclaimed += rec.retired.size();
      s.free_nodes += rec.free.size();
      s.quarantined += rec.quarantine.size();
      if (rec.in_flight != 0) ++s.in_flight;
      s.expropriations += rec.expropriations;
    }
    return s;
  }

  // Free-list order and retired contents decide which indices future
  // allocates/scans move; phase and the crash bookkeeping decide where the
  // engine parks and what an expropriator would drain.
  void fingerprint_into(Fingerprint& fp) const {
    for (const auto& rec : procs_) {
      fp.mix_range(rec.free);
      fp.mix_range(rec.retired);
      fp.mix(static_cast<std::uint64_t>(rec.phase));
      fp.mix(rec.in_flight);
      fp.mix(rec.in_retire);
      fp.mix_range(rec.quarantine);
      fp.mix(rec.expropriations);
      fp.mix(rec.death.load(std::memory_order_relaxed));
    }
  }

 private:
  // p won the confirm CAS on q's death word: splice q's orphaned, now
  // exclusively-owned bookkeeping into p's.
  void drain(int p, int q) {
    auto& victim = procs_[q];
    auto& mine = procs_[p];
    mine.retired.insert(mine.retired.end(), victim.retired.begin(),
                        victim.retired.end());
    victim.retired.clear();
    while (!victim.free.empty()) {
      mine.free.push_back(victim.free.front());
      victim.free.pop_front();
    }
    if (victim.in_flight != 0) {
      // Possibly linked by a CAS whose bookkeeping store never ran (on real
      // hardware the kill can land between the two) — quarantine, never free.
      mine.quarantine.push_back(victim.in_flight - 1);
      victim.in_flight = 0;
    }
    ++mine.expropriations;
  }

  // Thread-private bookkeeping plus the reclaimer's extension, one
  // cache-line-padded record per process: the free/retired container headers
  // and the extension's hot fields are touched on every operation, so
  // packing neighbours together would false-share.
  struct alignas(util::kCacheLineSize) Record : Ext {
    std::deque<std::uint64_t> free;
    std::vector<std::uint64_t> retired;
    // Protocol position for the schedule-search engine (reclaimer.h).
    ReclaimPhase phase = ReclaimPhase::kIdle;
    // Crash-robustness bookkeeping (reclaim/death.h). in_flight is p's
    // allocated-but-unlinked node, in_retire its unlinked-but-unrecorded
    // retiree (both stored +1, 0 = none); quarantine holds nodes p
    // quarantined from victims it expropriated; death is p's own state in
    // the suspect/confirm handshake — the one field other processes write.
    std::uint64_t in_flight = 0;
    std::uint64_t in_retire = 0;
    std::vector<std::uint64_t> quarantine;
    std::size_t expropriations = 0;
    std::atomic<std::uint8_t> death{kDeathLive};
  };

  const DeathOracle* oracle_ = nullptr;
  int n_;
  std::vector<Record> procs_;
  // unique_ptr because platform objects wrap std::atomic and are immovable;
  // the native Fast policy pads each register to its own cache line, which
  // keeps one process's publish/clear traffic from invalidating its
  // neighbours' slots.
  std::vector<std::unique_ptr<typename P::Register>> slots_;
  std::size_t pool_size_ = 0;
};

}  // namespace aba::reclaim
