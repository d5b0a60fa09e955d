(** Static compaction of the stored-sequence set (Section 3.2).

    Sequences are re-simulated in several orders; in each pass the
    simulation starts from the full target fault set, every sequence
    drops the faults its expansion detects, and a sequence that detects
    nothing new at its turn is removed. The paper's four passes:

    + by increasing stored length,
    + by decreasing stored length,
    + in reverse generation order,
    + by decreasing number of faults detected in the previous pass.

    Whether an expansion detects a fault does not depend on the faults
    simulated beside it ({!Bist_fault.Fsim.run}), so each (sequence,
    fault) pair is simulated at most once: every sequence remembers the
    targets it has met and those it detected, and at its turn simulates
    only the remaining targets it has not met yet. *)

type pass =
  | Increasing_length
  | Decreasing_length
  | Reverse_generation
  | Decreasing_prev_detections

val default_passes : pass list

val pass_name : pass -> string
(** Stable snake_case name, used by the trace spans and reports. *)

type outcome = {
  kept : Bist_logic.Tseq.t list;  (** Survivors, in generation order. *)
  dropped : int;
  simulated_time_units : int;
      (** Expansion length times 62-fault groups, summed over the
          simulations actually run. *)
}

val run :
  ?passes:pass list ->
  ?operators:Ops.operator list ->
  ?obs:Bist_obs.Obs.t ->
  ?known:(Bist_util.Bitset.t * Bist_util.Bitset.t) list ->
  n:int ->
  targets:Bist_util.Bitset.t ->
  Bist_fault.Universe.t ->
  Bist_logic.Tseq.t list ->
  outcome
(** [run ~n ~targets universe seqs] compacts [seqs] (given in generation
    order) while preserving coverage of [targets]. [obs] records one
    ["postprocess.pass"] span per pass, tagged with the ordering rule and
    the number of sequences still active when the pass finished, and
    adds [simulated_time_units] to the ["postprocess.time_units"]
    counter.

    [known] (default: nothing known) holds one [(met, det)] pair per
    sequence of [seqs], in the same order: [det] is the set of faults of
    [met] that the sequence's expansion detects. Each pair must come
    from simulating that same sequence's expansion with the same [n],
    [operators] and universe, as {!Procedure1.known} does. The result is
    the same with or without it; only the work changes. The sets are
    copied, not mutated. Raises [Invalid_argument] if [known] and [seqs]
    differ in length, if a set's capacity is not the universe size, or
    if some [det] is not a subset of its [met]. *)
