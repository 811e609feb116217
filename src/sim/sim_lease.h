// SimLeaseHost — the pid-lease death protocol hosted on SimWorld objects,
// so the DPOR model checker can search the crash-robust shm tier.
//
// Granularity: the packed state+generation word — the word every
// suspect/confirm/veto/acquire transition CASes — is a real simulated
// WritableCAS object, so each death-handshake transition is an announced,
// schedulable, reorderable step with full DPOR independence analysis. The
// evidence words (pid, heartbeat, suspect_hb) and all reclaimer book words
// stay plain process atomics: they execute inside grants (coarser than real
// hardware — the searched interleavings are a subset of native ones, which
// is sound for convicting mutants) and every one of them is folded into the
// reclaimer fingerprint the search engine mixes into its state key, so two
// configurations never merge unless their reclamation futures agree.
//
// Park points become one announced Write of the point id to a per-slot
// park register: the process is then *poised* at a step while holding
// whatever it just published (a guard, an announcement, an in-retire or
// in-flight marker), which is exactly where the engine's crash grants
// (`!p`) land. Liveness is the simulator's notion: a process is gone iff
// the engine crashed it — so suspicion is reached through the reclaimers'
// heartbeat-staleness edge, confirmed only once the victim is genuinely
// crashed (or immediately, under the kStaleConfirm lease mutant).
//
// Every slot is preseeded (kLive, generation 1, heartbeat 1) at
// construction time via object initial values: announced traffic from the
// engine thread would deadlock the announce-then-block protocol, so
// acquire() is never exercised here.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "reclaim/mutant.h"
#include "reclaim/reclaimer.h"
#include "shm/lease_hosts.h"
#include "shm/leased_reclaimer.h"
#include "shm/pid_lease.h"
#include "sim/sim_world.h"
#include "sim/types.h"

namespace aba::sim {

class SimLeaseHost {
 public:
  SimLeaseHost(SimWorld& world, int max_procs)
      : world_(&world),
        n_(max_procs),
        pid_(new std::atomic<std::int64_t>[static_cast<std::size_t>(
            max_procs)]()),
        hb_(new std::atomic<std::uint64_t>[static_cast<std::size_t>(
            max_procs)]()),
        shb_(new std::atomic<std::uint64_t>[static_cast<std::size_t>(
            max_procs)]()) {
    state_.reserve(static_cast<std::size_t>(max_procs));
    park_.reserve(static_cast<std::size_t>(max_procs));
    for (int s = 0; s < max_procs; ++s) {
      state_.push_back(world.create_object(
          ObjectKind::kWritableCas, "lease.state." + std::to_string(s),
          shm::LeaseRecord::pack(shm::kLeaseLive, 1), BoundSpec::unbounded()));
      park_.push_back(world.create_object(ObjectKind::kRegister,
                                          "lease.park." + std::to_string(s),
                                          shm::kParkNone,
                                          BoundSpec::unbounded()));
      pid_[s].store(s + 1, std::memory_order_relaxed);
      hb_[s].store(1, std::memory_order_relaxed);
    }
  }

  // Announced (process-thread only): the searched transitions.
  std::uint64_t state(int slot) const {
    return world_->access(PendingOp{state_[slot], OpKind::kRead, 0, 0}).value;
  }
  bool cas_state(int slot, std::uint64_t expected,
                 std::uint64_t desired) const {
    return world_
        ->access(PendingOp{state_[slot], OpKind::kCas, expected, desired})
        .cas_success;
  }
  void set_state(int slot, std::uint64_t v) const {
    world_->access(PendingOp{state_[slot], OpKind::kWrite, v, 0});
  }

  // Plain evidence words: grant-atomic, fingerprinted.
  std::int64_t pid(int slot) const {
    return pid_[slot].load(std::memory_order_seq_cst);
  }
  void set_pid(int slot, std::int64_t v) const {
    pid_[slot].store(v, std::memory_order_seq_cst);
  }
  std::uint64_t heartbeat(int slot) const {
    return hb_[slot].load(std::memory_order_seq_cst);
  }
  void set_heartbeat(int slot, std::uint64_t v) const {
    hb_[slot].store(v, std::memory_order_seq_cst);
  }
  std::uint64_t suspect_hb(int slot) const {
    return shb_[slot].load(std::memory_order_seq_cst);
  }
  void set_suspect_hb(int slot, std::uint64_t v) const {
    shb_[slot].store(v, std::memory_order_seq_cst);
  }

  // "Gone" is the simulator's crash notion: only a process the engine
  // killed (or that self-fenced) is definitively dead.
  bool alive(std::int64_t pid) const {
    if (pid <= 0) return false;
    const int p = static_cast<int>(pid) - 1;
    if (p >= n_) return true;  // Not a seeded slot owner: nothing to confirm.
    return !world_->is_crashed(p);
  }

  std::int64_t self_pid() const { return n_ + ++acquired_; }
  bool preseeded() const { return true; }

  // One announced Write of the park point: the poised-at-a-vulnerable-
  // instant juncture the crash grants target.
  void park(int slot, std::uint64_t point) const {
    world_->access(PendingOp{park_[slot], OpKind::kWrite, point, 0});
  }

  // Engine-side: object_value peeks only, never announces.
  void fingerprint_into(reclaim::Fingerprint& fp) const {
    for (int s = 0; s < n_; ++s) {
      fp.mix(world_->object_value(state_[s]));
      fp.mix(static_cast<std::uint64_t>(pid(s)));
      fp.mix(heartbeat(s));
      fp.mix(suspect_hb(s));
    }
  }

 private:
  SimWorld* world_;
  int n_;
  std::vector<ObjectId> state_;
  std::vector<ObjectId> park_;
  std::unique_ptr<std::atomic<std::int64_t>[]> pid_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> hb_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> shb_;
  mutable std::int64_t acquired_ = 0;
};

using SimLeaseTable = shm::PidLeaseTableT<SimLeaseHost>;
using SimLeasedEnv = shm::HostedEnv<SimLeaseTable>;

// The sim-hosted leased reclaimers the fixture factory plugs into
// TreiberStack/MsQueue: standard (SimWorld&, n, FreeLists) constructor
// shape, with the two mutation seams as template parameters — TableMut
// feeds the lease table (kStaleConfirm lives there), ReclMut feeds the
// book/reclaimer (kNoQuarantine, kNoRestamp). All-kNone instantiations are
// the shipped behavior; anything else exists to be convicted.
template <class Base,
          reclaim::LeaseMutation TableMut = reclaim::LeaseMutation::kNone,
          reclaim::LeaseMutation ReclMut = reclaim::LeaseMutation::kNone>
class SimLeased : public shm::LeasedFacade<Base> {
 public:
  SimLeased(SimWorld& world, int n, reclaim::FreeLists initial)
      : shm::LeasedFacade<Base>(n, std::move(initial), SimLeaseHost(world, n),
                                TableMut, ReclMut) {}
};

template <bool kCached,
          reclaim::LeaseMutation TableMut = reclaim::LeaseMutation::kNone,
          reclaim::LeaseMutation ReclMut = reclaim::LeaseMutation::kNone>
using SimLeasedHazardReclaimerT =
    SimLeased<shm::LeasedHazard<kCached, SimLeasedEnv>, TableMut, ReclMut>;
template <reclaim::LeaseMutation TableMut = reclaim::LeaseMutation::kNone,
          reclaim::LeaseMutation ReclMut = reclaim::LeaseMutation::kNone>
using SimLeasedEpochReclaimerT =
    SimLeased<shm::LeasedEpochReclaimerT<SimLeasedEnv>, TableMut, ReclMut>;

using SimLeasedHazardReclaimer = SimLeasedHazardReclaimerT<false>;
using SimLeasedCachedHazardReclaimer = SimLeasedHazardReclaimerT<true>;
using SimLeasedEpochReclaimer = SimLeasedEpochReclaimerT<>;

// Every retire goes through the staged pending-window hand-off of
// retire_batch (chunk of one): the fixture that puts the stage → park →
// stamp window of PR 9's batched retire under every searched pop, so a
// crash grant can land between staging and chunk stamping and the search
// can verify the pending-window re-home path with spec verdicts on.
class SimLeasedEpochBatchedReclaimer final : public SimLeasedEpochReclaimer {
 public:
  using SimLeasedEpochReclaimer::SimLeased;

  void retire(int p, std::uint64_t idx) {
    std::uint64_t one = idx;
    this->retire_batch(p, &one, 1);
  }
};

}  // namespace aba::sim
