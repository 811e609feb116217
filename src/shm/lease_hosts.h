// Lease hosts off the shared segment — the pieces that let the leased
// reclaimers (shm/leased_reclaimer.h) and the pid-lease death protocol
// (shm/pid_lease.h) run outside a real shm segment:
//
//   HeapArena       — the ShmArena placement API over plain heap memory.
//                     The book/guard/epoch words become ordinary process
//                     atomics; placement tags are accepted and ignored.
//   ThreadLeaseHost — a PidLeaseTableT host where the "processes" are
//                     threads of one process: every slot is preseeded
//                     kLive (generation 1, heartbeat 1), liveness is
//                     unconditional (threads of a live process are alive),
//                     and park points are no-ops. This is what the native
//                     determinism suites run the leased reclaimers on —
//                     same protocol code, zero fork/shm machinery.
//   LeasedFacade    — owns arena + lease table and derives from an
//                     Env-templated base reclaimer, presenting the standard
//                     Reclaimer concept surface, so a leased reclaimer can be
//                     plugged into TreiberStack/MsQueue on ANY platform
//                     (native or sim) via the usual (Env&, n, FreeLists)
//                     constructor. sim/sim_lease.h derives the simulated
//                     fixtures from the same facade with a SimLeaseHost.
//
// The ThreadLeased* aliases at the bottom are the native-platform leased
// reclaimers used by the tokenized Counted≡Fast determinism tests: they
// exercise the exact begin_op/self_check/beat/scan/expropriate code paths
// the model checker searches, pinned against native drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "reclaim/mutant.h"
#include "reclaim/reclaimer.h"
#include "shm/leased_reclaimer.h"
#include "shm/pid_lease.h"

namespace aba::shm {

// The ShmArena placement API (place / place_array, tag + count) over heap
// memory. Tags are ignored — there is no cross-process layout to agree on —
// but keeping the signature identical means SharedBook and the reclaimers
// place their words through the exact same calls on every host.
class HeapArena {
 public:
  template <class T>
  T* place(const char* tag) {
    return place_array<T>(tag, 1);
  }

  template <class T>
  T* place_array(const char* /*tag*/, std::size_t count) {
    auto holder = std::make_unique<Holder<T>>(count);
    T* data = holder->data.get();
    blocks_.push_back(std::move(holder));
    return data;
  }

 private:
  struct HolderBase {
    virtual ~HolderBase() = default;
  };
  template <class T>
  struct Holder final : HolderBase {
    explicit Holder(std::size_t count) : data(new T[count]()) {}
    std::unique_ptr<T[]> data;
  };

  std::vector<std::unique_ptr<HolderBase>> blocks_;
};

// PidLeaseTableT host for threads of a single live process. Preseeded: slot
// p belongs to thread p from construction (state kLive, generation 1,
// heartbeat 1, pid p+1), acquire() is never exercised. Liveness is
// unconditional — a thread of a running process cannot be SIGKILLed away
// from under its lease — so the death handshake can suspect on heartbeat
// staleness but never confirm: exactly the veto-side behavior the
// determinism suites should pin.
class ThreadLeaseHost {
 public:
  explicit ThreadLeaseHost(int max_procs)
      : records_(new LeaseRecord[static_cast<std::size_t>(max_procs)]()),
        n_(max_procs) {
    for (int s = 0; s < max_procs; ++s) {
      records_[s].state_gen.store(LeaseRecord::pack(kLeaseLive, 1),
                                  std::memory_order_relaxed);
      records_[s].pid.store(s + 1, std::memory_order_relaxed);
      records_[s].heartbeat.store(1, std::memory_order_relaxed);
    }
  }

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

  bool alive(std::int64_t pid) const { return pid > 0; }
  std::int64_t self_pid() const { return n_ + ++acquired_; }
  bool preseeded() const { return true; }
  void park(int /*slot*/, std::uint64_t /*point*/) const {}

  void fingerprint_into(reclaim::Fingerprint& fp) const {
    for (int s = 0; s < n_; ++s) {
      fp.mix(state(s));
      fp.mix(static_cast<std::uint64_t>(pid(s)));
      fp.mix(heartbeat(s));
      fp.mix(suspect_hb(s));
    }
  }

 private:
  std::unique_ptr<LeaseRecord[]> records_;
  int n_;
  mutable std::int64_t acquired_ = 0;
};

// The Env the hosted leased reclaimers are instantiated with: same member
// shape as ShmPlatform::Env (arena / leases / owner) plus the test-only
// mutation seam detail::mutation_of() picks up.
template <class Table>
struct HostedEnv {
  HeapArena* arena = nullptr;
  Table* leases = nullptr;
  bool owner = true;
  reclaim::LeaseMutation mutation = reclaim::LeaseMutation::kNone;
};

namespace detail {
// The heap arena and lease table a LeasedFacade's reclaimer points into. A
// base class of the facade, so both exist before the reclaimer does.
template <class Env>
struct LeasedHosting {
  using Table = std::remove_pointer_t<decltype(Env::leases)>;

  LeasedHosting(std::unique_ptr<Table> table, reclaim::LeaseMutation mutation)
      : table_(std::move(table)),
        env_{arena_.get(), table_.get(), /*owner=*/true, mutation} {}

  std::unique_ptr<HeapArena> arena_ = std::make_unique<HeapArena>();
  std::unique_ptr<Table> table_;
  Env env_;
};
}  // namespace detail

// Owns the arena and the lease table, and IS the base leased reclaimer —
// the whole Reclaimer concept surface is inherited. Derived classes supply
// the host and the mutations through the protected constructor and keep
// the standard (PlatformEnv&, n, FreeLists) shape themselves.
template <class Base>
class LeasedFacade : private detail::LeasedHosting<typename Base::Env>,
                     public Base {
  using Hosting = detail::LeasedHosting<typename Base::Env>;
  using Table = typename Hosting::Table;

 protected:
  template <class Host>
  LeasedFacade(int n, reclaim::FreeLists initial, Host host,
               reclaim::LeaseMutation table_mutation,
               reclaim::LeaseMutation reclaimer_mutation)
      : Hosting(std::make_unique<Table>(std::move(host), n, table_mutation),
                reclaimer_mutation),
        Base(this->env_, n, std::move(initial)) {}
};

namespace detail {
using ThreadLeaseTable = PidLeaseTableT<ThreadLeaseHost>;
using ThreadEnv = HostedEnv<ThreadLeaseTable>;
}  // namespace detail

// Native-platform leased reclaimers: threads play the processes, the lease
// protocol runs for real (self_check/beat/staleness suspicion — vetoes
// only, never confirms). Constructible from any platform Env; the platform
// env is unused because all leased state is hosted here.
template <class Base>
class ThreadLeased final : public LeasedFacade<Base> {
 public:
  template <class PlatformEnv>
  ThreadLeased(PlatformEnv& /*env*/, int n, reclaim::FreeLists initial)
      : LeasedFacade<Base>(n, std::move(initial), ThreadLeaseHost(n),
                           reclaim::LeaseMutation::kNone,
                           reclaim::LeaseMutation::kNone) {}
};

template <bool kCached>
using ThreadLeasedHazardReclaimerT =
    ThreadLeased<LeasedHazard<kCached, detail::ThreadEnv>>;
using ThreadLeasedEpochReclaimer =
    ThreadLeased<LeasedEpochReclaimerT<detail::ThreadEnv>>;

using ThreadLeasedHazardReclaimer = ThreadLeasedHazardReclaimerT<false>;
using ThreadLeasedCachedHazardReclaimer = ThreadLeasedHazardReclaimerT<true>;

}  // namespace aba::shm
