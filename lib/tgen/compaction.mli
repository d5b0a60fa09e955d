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
    the snapshot's sequence.

    Those faults start from a frontier ({!Bist_fault.Fsim.frontier}):
    each pass records, with one simulation, the current sequence's
    states at every k-th boundary of its block grid, k the smallest
    power of two that keeps the stored frontiers within the current
    sequence's fault-free trace ([length * nodes] bytes), and a trial
    loads its faults from the stored boundary nearest below [start]
    (or starts from reset). From [start] on the candidate replays the
    current sequence one block later, so at each stored boundary
    [q + block] a fault whose state, and the fault-free state, equal
    the current sequence's there, and which the current sequence had
    not detected before [q + block], is detected exactly [block] steps
    earlier than in the current sequence: it retires at [q] with that
    time ({!Bist_fault.Fsim.rejoin}). An accepted trial moves the stored
    boundaries above [start] down one block, rebuilding them from its
    own recording and the rejoined faults' states one block up.

    The trials, the accepted omissions and the result are those of
    re-simulating every must-detect fault from reset on every trial.

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
  ?baseline:Bist_fault.Fsim.outcome ->
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

    [baseline] (default: simulated here) is a full fault simulation of
    the input sequence from reset on every fault of the universe, such
    as the engine's closing one ({!Engine.generate_with_coverage}): the
    run takes its detected set and detection times instead of
    simulating the sequence itself. A run resumed past the baseline
    ignores it. Raises [Invalid_argument] if it was simulated for
    another universe or sequence.

    [obs] records a ["compaction.baseline"] span for the initial
    must-detect simulation when it runs one (["compaction.resume"] for a
    resumed run's recomputation) and one ["compaction.pass"] span per block
    granularity, whose args (evaluated when the pass ends) report the
    block size, trials, accepted omissions and resulting length, with
    the pass's ["compaction.record"] simulation inside. It counts
    ["compaction.trials"], ["compaction.accepted"] and
    ["compaction.rejoined"] (faults retired by rejoining) and sets the
    gauge ["compaction.frontier_bytes"] to the store's peak size. *)

val encode_snapshot : Bist_resilience.Checkpoint.Io.writer -> snapshot -> unit
val decode_snapshot : Bist_resilience.Checkpoint.Io.reader -> snapshot
(** Raises {!Bist_resilience.Checkpoint.Corrupt} on malformed input. *)

val snapshot_equal : snapshot -> snapshot -> bool
(** Structural equality, for codec round-trip tests. *)
