(** Stuck-at fault simulation for synchronous sequential circuits.

    Semantics, matching the paper: both the fault-free and every faulty
    machine start each sequence in the all-unspecified state; a fault is
    detected at time unit [u] when some primary output carries a binary
    value in the fault-free machine and the opposite binary value in the
    faulty machine at time [u].

    Everything here runs on one kernel, the event-driven
    {!Bist_sim.Ppsfp} core (shared fault-free trace, fault dropping,
    quiescent levels skipped). {!run} packs the fault-free machine into
    lane 0 of a packed word and up to 62 faulty machines into the
    remaining lanes, so one pass over the sequence simulates a group of
    62 faults; the single-fault path below puts its one fault in lane 1.
    The differential test suite checks both against a test-local
    full-sweep packed simulator and {!run} also against scalar
    simulation of structurally mutated netlists. *)

type outcome = {
  universe : Universe.t;
  det_time : int array;
      (** [det_time.(i)] is the first detection time of fault [i], or [-1]
          when undetected (or not a target). *)
  detected : Bist_util.Bitset.t;  (** Fault ids detected at least once. *)
}

val run :
  ?obs:Bist_obs.Obs.t ->
  ?pool:Bist_parallel.Pool.t ->
  ?ctl:Bist_resilience.Ctl.t ->
  ?targets:Bist_util.Bitset.t ->
  ?stop_when_all_detected:bool ->
  Universe.t ->
  Bist_logic.Tseq.t ->
  outcome
(** Simulate every target fault (default: all faults of the universe)
    under the sequence. Each 62-fault group stops at its last detection,
    so [stop_when_all_detected] is ignored: it changes no result and no
    amount of work.

    With [pool] (default: {!Bist_parallel.Pool.from_env}, i.e.
    sequential unless [BIST_JOBS >= 2] is exported) the target faults are
    cut by {!shards} and the shards run over the pool's domains, one
    independent simulator per shard. A one-worker pool, or at most 62
    targets, runs in the caller and dispatches no pool task. Every width
    simulates the same groups as the sequential run, so the outcome is
    bit-identical and so is the work done ({!Bist_parallel.Shard}).

    [obs] (default {!Bist_obs.Obs.null}, a no-op) records one
    ["fsim.shard"] span per shard, tagged with the executing domain's id
    and the shard's fault count.

    [ctl] (default: none) is polled between 62-fault groups inside every
    shard — including on worker domains — and raises
    {!Bist_resilience.Ctl.Preempted} at that safe point. The caller that
    owns resumable state (engine round, compaction trial) catches it and
    re-raises its own snapshot-carrying [Interrupted]; nothing in this
    module is left partially mutated. *)

val shards : jobs:int -> int array -> int array array
(** The sharding rule of {!run}: the target ids, in order, cut into
    [min jobs groups] contiguous shards of whole 62-fault groups, where
    [groups] is the id count divided by 62, rounded up. Shard sizes
    differ by at most one group, and only the last shard can hold a
    partial group. No ids give no shards. *)

val coverage : outcome -> float
(** Detected targets / universe size. *)

val install : Bist_sim.Ppsfp.t -> Fault.t -> lane:int -> unit
(** Force the fault into one lane (1..62) of the simulator. *)

(** {2 Single-fault fast path}

    Procedure 2 simulates one fault under many candidate sequences; this
    path reuses the compiled simulator across calls. *)

type single
(** One fault installed in a compiled simulator, plus the fault-free
    trace buffer that every candidate sequence reuses. The buffer is
    mutable state: a [single] must not be shared across domains. *)

val single : Bist_circuit.Netlist.t -> Fault.t -> single

val single_detects : single -> Bist_logic.Tseq.t -> bool
(** Early-exits at the first detection. *)

val single_detection_time : single -> Bist_logic.Tseq.t -> int option

val detects : Bist_circuit.Netlist.t -> Fault.t -> Bist_logic.Tseq.t -> bool
(** One-shot convenience wrapper around {!single}. *)
