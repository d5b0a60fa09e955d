(** Static compaction of [T0] by block omission.

    The paper compacts STRATEGATE sequences with vector-restoration-based
    static compaction [12]; this is the documented substitute. It removes
    blocks of consecutive vectors, halving the block size from
    [initial_block] down to 1, re-simulating after each trial and keeping
    an omission only when every originally-detected fault stays detected.
    Scanning runs back-to-front because later vectors are more often
    redundant once earlier vectors have synchronized the circuit.

    A trial that removes the block at [start] keeps the vectors before
    [start] unchanged, so every fault the current sequence detects
    before [start] is detected at the same step by the candidate. The
    run keeps each must-detect fault's detection time in the current
    sequence and re-simulates only the faults detected at or after
    [start]; a resumed run recomputes those times with one simulation of
    the snapshot's sequence. The trials, the accepted omissions and the
    result are those of re-simulating every must-detect fault on every
    trial.

    The result never detects fewer faults than the input sequence, and
    its detected set is a superset of the input's. *)

type stats = {
  trials : int;
  accepted : int;
  initial_length : int;
  final_length : int;
}

type snapshot = {
  seq : Bist_logic.Tseq.t;  (** Current (partially compacted) sequence. *)
  must_detect : Bist_util.Bitset.t option;
      (** The baseline detected set; [None] when preempted before the
          baseline simulation committed (resume recomputes it). *)
  block : int;  (** Current block granularity. *)
  start : int;  (** Next omission start position (back-to-front). *)
  trials : int;
  accepted : int;
  initial_length : int;
}
(** State at a trial boundary; resuming here replays the remaining trials
    exactly as the uninterrupted run would (compaction consumes no
    randomness, so the whole scan is a function of this record). *)

exception Interrupted of snapshot
(** Raised out of {!compact} when [ctl] demands a stop, carrying the last
    committed trial boundary. *)

val compact :
  ?initial_block:int ->
  ?max_trials:int ->
  ?obs:Bist_obs.Obs.t ->
  ?pool:Bist_parallel.Pool.t ->
  ?ctl:Bist_resilience.Ctl.t ->
  ?resume:snapshot ->
  Bist_fault.Universe.t ->
  Bist_logic.Tseq.t ->
  Bist_logic.Tseq.t * stats
(** [initial_block] defaults to 1/8 of the sequence length;
    [max_trials] (default unlimited) bounds the number of re-simulations
    for large circuits. [pool] parallelizes the per-trial re-simulations
    without changing which omissions are accepted (sharded simulation is
    bit-identical); default sequential unless [BIST_JOBS] is exported.

    [ctl] (default: none) is polled at every trial boundary and forwarded
    to the inner fault simulations; a stop raises {!Interrupted} with the
    boundary snapshot, and each committed trial notes progress
    ({!Bist_resilience.Ctl.note_progress}). [resume] (default: none)
    continues from a snapshot; the [seq] argument is then ignored in
    favor of the snapshot's sequence, and the final [stats] count trials
    across all the resumed legs. A stop during a resumed run's
    recomputation of detection times raises {!Interrupted} with the
    snapshot it resumed from.

    [obs] records a ["compaction.baseline"] span for the initial
    must-detect simulation (["compaction.resume"] for a resumed run's
    recomputation) and one ["compaction.pass"] span per block
    granularity, whose args (evaluated when the pass ends) report the
    block size, trials, accepted omissions and resulting length. *)

val encode_snapshot : Bist_resilience.Checkpoint.Io.writer -> snapshot -> unit
val decode_snapshot : Bist_resilience.Checkpoint.Io.reader -> snapshot
(** Raises {!Bist_resilience.Checkpoint.Corrupt} on malformed input. *)

val snapshot_equal : snapshot -> snapshot -> bool
(** Structural equality, for codec round-trip tests. *)
