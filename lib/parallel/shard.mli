(** Deterministic sharding of a fault universe over a {!Pool}.

    {!Bist_fault.Fsim.run} cuts its target ids, in the universe's
    locality order, into contiguous shards of whole 62-fault groups, runs
    one fully independent simulation per shard — each worker builds its
    own simulator instance, so no mutable simulation state is shared
    between domains — and {!merge}s the per-shard detection times back
    into universe order.

    Because shards are disjoint slices of one fixed order and a
    fault's detection time does not depend on which other faults share
    its simulation pass, the merged result is {e bit-identical} for every
    shard count, including 1. That invariant is the contract the property
    tests pin down, and it is what lets [BIST_JOBS] be applied to any
    existing workload without changing its output. *)

type piece = {
  ids : int array;  (** Chunk fault ids, a slice of the target order. *)
  det_time : int array;
      (** Chunk-local first-detection times aligned with [ids];
          [-1] = undetected. *)
}

val partition : chunks:int -> 'a array -> 'a array array
(** Split into at most [chunks] contiguous slices whose lengths differ by
    at most one, preserving order; never returns an empty slice, so fewer
    (possibly zero) slices come back when the input is shorter than
    [chunks]. [chunks] is clamped to at least 1. *)

val merge : size:int -> piece array -> int array * Bist_util.Bitset.t
(** Scatter chunk-local detection times into a universe-sized
    [det_time] array (default [-1]) and the matching detected set.
    Pieces must hold disjoint ids below [size]; aligned [ids]/[det_time]
    lengths are enforced. *)
