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
    Both can jump over the recurring blocks of a repeated expansion when
    given its block length.
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
  ?block:int ->
  ?stop_when_all_detected:bool ->
  Universe.t ->
  Bist_logic.Tseq.t ->
  outcome
(** Simulate every target fault (default: all faults of the universe)
    under the sequence. Each 62-fault group stops at its last detection,
    so [stop_when_all_detected] is ignored: it changes no result and no
    amount of work.

    {b Group order.} The targets fill their 62-fault groups, and the
    shards below, in the universe's locality order
    ({!Universe.by_rank}), not in id order: faults of one fanin cone
    share a group, so its faulty machines stir fewer distinct gates. The
    order changes no result. A fault's detection time does not depend on
    the faults that share its group, since lanes are independent bitwise
    and a dropped lane only stops its own forces.

    {b Recurring blocks.} [block] (default: none; at least 1, else
    [Invalid_argument]) is the length [l] of the block a repeated
    expansion repeats, [|S|] when the operators include [Repeat] and
    [n >= 2]. At each multiple [u] of [l], a group jumps past every
    following block that repeats the block before when three things
    hold: that block's inputs equal the previous block's, no lane was
    dropped since [u - l], and every lane's flip-flop state, fault-free
    lane included, equals its state at [u - l]. The skipped steps would
    replay the previous block, in which no live lane detected, and
    return each lane to the same state, so the outcome is the one
    without [block]. The fault-free trace copies those blocks' rows
    instead of sweeping them ({!Bist_sim.Ppsfp.trace}). The conditions
    are tested on the actual inputs and states, so a wrong [block] can
    only forgo skips: it never changes an outcome.

    With [pool] (default: {!Bist_parallel.Pool.from_env}, i.e.
    sequential unless [BIST_JOBS >= 2] is exported) the target faults are
    cut by {!shards} and the shards run over the pool's domains, one
    independent simulator per shard. A one-worker pool, or at most 62
    targets, runs in the caller and dispatches no pool task. Every width
    simulates the same groups as the sequential run, so the outcome is
    bit-identical and so is the work done ({!Bist_parallel.Shard}).

    [obs] (default {!Bist_obs.Obs.null}, a no-op) records one
    ["fsim.shard"] span per shard, tagged with the executing domain's id
    and the shard's fault count. It adds the run's work to nine
    counters: ["fsim.groups"] (62-fault groups), ["fsim.group_steps"]
    (time steps simulated, summed over groups; jumped steps excluded),
    ["fsim.skipped_steps"] (the group-steps jumped past recurring
    blocks), ["fsim.dropped_lanes"] (lanes retired on detection, one per
    detected target), ["fsim.evaluations"] (the faulty machines' gate
    evaluations, {!Bist_sim.Ppsfp.evaluations} summed over shards),
    ["fsim.full_steps"] and ["fsim.event_steps"] (the group-steps run as
    a full sweep and as an event sweep, {!Bist_sim.Ppsfp.full_steps} and
    {!Bist_sim.Ppsfp.event_steps} summed over shards),
    ["fsim.trace_steps"] (the fault-free steps a sequential run
    materialises, as many as its longest group reaches; each shard of a
    pooled run materialises its own trace, which this count does not add
    up) and ["fsim.trace_copies"] (how many of those were copied instead
    of swept). All nine are the same at every pool width: groups are
    cut the same way, the sweep mode is chosen per group from that
    group's own activity, and copies depend only on the sequence.

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

val single_detects : ?block:int -> single -> Bist_logic.Tseq.t -> bool
(** Early-exits at the first detection. [block] is the sequence's block
    length, as in {!run}: recurring blocks are jumped and their trace
    rows copied, and the answer is the one without it. *)

val single_detection_time : ?block:int -> single -> Bist_logic.Tseq.t -> int option

val detects : Bist_circuit.Netlist.t -> Fault.t -> Bist_logic.Tseq.t -> bool
(** One-shot convenience wrapper around {!single}. *)
