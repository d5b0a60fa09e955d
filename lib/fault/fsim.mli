(** Stuck-at fault simulation for synchronous sequential circuits.

    Semantics, matching the paper: both the fault-free and every faulty
    machine start each sequence in the all-unspecified state; a fault is
    detected at time unit [u] when some primary output carries a binary
    value in the fault-free machine and the opposite binary value in the
    faulty machine at time [u].

    {!run} packs the fault-free machine into lane 0 of a packed word and
    up to 62 faulty machines into the remaining lanes, so one pass over
    the sequence simulates a group of 62 faults. Its kernel is the
    event-driven {!Bist_sim.Ppsfp} core (shared fault-free trace, fault
    dropping, quiescent levels skipped). The single-fault path below
    runs the full-sweep {!Bist_sim.Packed_sim} kernel. The differential
    test suite checks {!run} against a {!Bist_sim.Packed_sim} group loop
    and against scalar simulation of structurally mutated netlists. *)

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
  ?tune:Bist_parallel.Tune.t ->
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
    sharded over the pool's domains, one independent simulator per shard;
    the outcome is bit-identical to the sequential one for every pool
    width ({!Bist_parallel.Shard}).

    [obs] (default {!Bist_obs.Obs.null}, a no-op) records one
    ["fsim.shard"] span per shard, tagged with the executing domain's id
    and the shard's fault count.

    [ctl] (default: none) is polled between 62-fault groups inside every
    shard — including on worker domains — and raises
    {!Bist_resilience.Ctl.Preempted} at that safe point. The caller that
    owns resumable state (engine round, compaction trial) catches it and
    re-raises its own snapshot-carrying [Interrupted]; nothing in this
    module is left partially mutated. *)

val coverage : outcome -> float
(** Detected targets / universe size. *)

(** {2 Single-fault fast path}

    Procedure 2 simulates one fault under many candidate sequences; this
    path reuses the compiled simulator across calls. *)

type single

val single : Bist_circuit.Netlist.t -> Fault.t -> single

val single_detects : single -> Bist_logic.Tseq.t -> bool
(** Early-exits at the first detection. *)

val single_detection_time : single -> Bist_logic.Tseq.t -> int option

val detects : Bist_circuit.Netlist.t -> Fault.t -> Bist_logic.Tseq.t -> bool
(** One-shot convenience wrapper around {!single}. *)
