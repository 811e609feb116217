// The uniform structure API: one concept pair, one verb vocabulary.
//
// Every application structure in this repository — stacks, queues, their
// sharded wrappers, and the ring-buffer family — speaks the same two verbs:
//
//   bool try_push(int p, std::uint64_t v)         — may refuse (full / pool
//                                                    pressure);
//   std::optional<std::uint64_t> try_pop(int p)   — nullopt when empty.
//
// Progress caveat: the `try_` prefix promises refusal SEMANTICS (the verb
// returns rather than waiting for capacity/elements), NOT wait-freedom. On
// the bounded rings an operation may spin waiting out an in-flight peer —
// a producer parked between reserving a position and publishing its slot
// sequence stalls consumers at that position (and symmetrically a claimed-
// but-unbumped pop stalls a wrapping producer) — so MpscRing/MpmcRing
// try_* are not lock-free. The simulator bounds these spins with
// max_grants_per_execution; on native platforms a descheduled peer can
// stall the operation for its whole quantum. Callers that need bounded
// completion must use SpscRing (wait-free: reads and writes only) or
// schedule around the stall.
//
// What distinguishes the families is *why* try_push may refuse:
//
//   UnboundedContainer — refusal is an implementation artifact (a reclaimer
//       that cannot produce a safe node under pool pressure). The abstract
//       object has no capacity; the specs treat a refused put as a legal
//       no-op at any state. TreiberStack, MsQueue and the sharded wrappers
//       are these.
//
//   BoundedContainer — capacity is part of the abstract object: the
//       structure additionally exposes capacity() (the exact bound) and
//       approx_size() (a racy occupancy estimate), and a refused put is
//       legal ONLY when the structure is full (spec::BoundedQueueSpec pins
//       exactly that). The ring buffers are these.
//
// The harness adapters (harness/adapters.h) are written once against
// `Container` — a single invoker template drives every structure — and the
// bounded refinement is what routes ring histories to the capacity-aware
// spec.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>

namespace aba::structures {

template <class C>
concept Container = requires(C c, int p, std::uint64_t v) {
  { c.try_push(p, v) } -> std::same_as<bool>;
  { c.try_pop(p) } -> std::same_as<std::optional<std::uint64_t>>;
};

// Bounded refinement: the capacity is abstract state, not an artifact.
// approx_size() is allowed to take shared-memory steps (it reads the
// position words), so it is non-const like the verbs themselves.
template <class C>
concept BoundedContainer = Container<C> && requires(const C& c, C& m) {
  { c.capacity() } -> std::convertible_to<std::size_t>;
  { m.approx_size() } -> std::convertible_to<std::size_t>;
};

template <class C>
concept UnboundedContainer = Container<C> && !BoundedContainer<C>;

// Batched refinement of the bounded family: push_n/pop_n move up to n
// elements under ONE position update (SPSC: one tail/head write publishes
// or frees the whole batch; MPSC/MPMC: one CAS reserves all n positions),
// amortizing the per-element position traffic — and, on the MPSC/MPMC
// rings, the per-element RMW — toward zero. Both return how many elements
// actually moved.
//
// Semantics are deliberately WEAKER than the single-op verbs' strict
// refusal contract: a batch may move fewer than n (partial capacity /
// partial occupancy is not a refusal, it is the answer), and pop_n on the
// MPSC ring drains only the contiguous *published* prefix — a reserved-
// but-unpublished slot ends the batch rather than being waited out. Code
// that needs the spec-pinned refusal semantics uses try_push/try_pop;
// batch callers (the deferred-epoch retire pipeline's ring hand-off, bulk
// producers) trade that strictness for the amortization.
template <class C>
concept BatchedBoundedContainer =
    BoundedContainer<C> &&
    requires(C m, int p, const typename C::value_type* in,
             typename C::value_type* out, std::size_t n) {
      { m.push_n(p, in, n) } -> std::convertible_to<std::size_t>;
      { m.pop_n(p, out, n) } -> std::convertible_to<std::size_t>;
    };

}  // namespace aba::structures
