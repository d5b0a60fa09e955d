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

(** {2 Frontier states} *)

type frontier
(** The state of a run at one of its steps [u], before step [u] applies:
    the fault-free machine's flip-flop state, and the flip-flop state of
    every target the run still held there, i.e. had not detected (nor
    retired by rejoining) at a step before [u]. A fault's state takes
    two bits per flip-flop, so a frontier holding [h] faults of a
    circuit with [f] flip-flops is about [h * (8 + f / 4)] bytes
    ({!frontier_cost}). Immutable; any domain may read it. *)

val frontier_step : frontier -> int
val frontier_faults : frontier -> int array
(** The held fault ids, ascending; a fresh array. *)

val frontier_good : frontier -> Bist_logic.Ternary.t array
(** The fault-free state, one value per flip-flop in
    {!Bist_circuit.Netlist.dffs} order. *)

val frontier_state : frontier -> int -> Bist_logic.Ternary.t array
(** A held fault's state, in the same order; [Invalid_argument] if the
    frontier does not hold the fault. *)

val frontier_bytes : frontier -> int
(** The memory the frontier takes, {!frontier_cost} of its fault count. *)

val frontier_cost : Universe.t -> faults:int -> int
(** The bytes of a frontier of this universe's circuit that holds
    [faults] faults: the figure a caller bounds a store of frontiers
    with before it records them. *)

val frontier_union : frontier -> frontier -> keep:(int -> bool) -> frontier
(** [frontier_union a b ~keep] is [a] plus every fault of [b] that [a]
    does not hold and [keep] accepts, in its state in [b]. A caller
    whose run retired faults by rejoining another ({!rejoin}) rebuilds
    that run's later frontiers this way: the faults still live come from
    its own recording, the rejoined ones from the other run's. *)

type rejoin = {
  states : frontier array;
      (** Frontiers recorded by an earlier run [R], steps ascending. *)
  shift : int;
      (** From step [step f - shift] of this run on, its inputs are [R]'s
          from step [step f] on, to the end of both sequences, for
          every [f] in [states]. *)
  det_time : int array;  (** [R]'s detection times, by fault id. *)
}
(** Where a run may retire a fault that rejoins [R]: see {!run}. *)

type outcome = {
  universe : Universe.t;
  sequence : Bist_logic.Tseq.t;
      (** The sequence simulated: with [from], the suffix. *)
  det_time : int array;
      (** [det_time.(i)] is the first detection time of fault [i], or [-1]
          when undetected (or not a target). *)
  detected : Bist_util.Bitset.t;  (** Fault ids detected at least once. *)
  frontiers : frontier array;
      (** One per [record] step, in order; empty without [record]. *)
  rejoined : int;  (** Targets retired by rejoining ([rejoin]). *)
}

val run :
  ?obs:Bist_obs.Obs.t ->
  ?counters:string ->
  ?pool:Bist_parallel.Pool.t ->
  ?ctl:Bist_resilience.Ctl.t ->
  ?targets:Bist_util.Bitset.t ->
  ?block:int ->
  ?stop_when_all_detected:bool ->
  ?from:frontier ->
  ?record:int array ->
  ?rejoin:rejoin ->
  Universe.t ->
  Bist_logic.Tseq.t ->
  outcome
(** Simulate every target fault (default: all faults of the universe)
    under the sequence. Each 62-fault group stops at its last detection,
    so [stop_when_all_detected] is ignored: it changes no result and no
    amount of work.

    {b Frontiers.} With [from] (a frontier at step [u], default: the
    all-X reset state at step 0), every group starts in the frontier's
    states instead of from reset, and the sequence is the {e suffix}
    that follows step [u]: its vector [i] is step [u + i], and detection
    times are reported in those steps. Every target must be held by
    [from] ([Invalid_argument] otherwise). A fault's state at [u] is all
    of its past that matters, so the outcome is the one of the straight
    run over the prefix that led to [from] followed by the suffix, on
    the targets [from] holds. [record] (steps ascending, each in
    [\[u, u + length\]]) asks for the run's frontier at each of those
    steps, returned in [frontiers]: the fault-free state, and the state
    of every target still live there in its lane.

    {b Rejoining.} With [rejoin], at each step [q = step f - shift] of
    a frontier [f] in [rejoin.states] (each in [\[u, u + length)]), a
    live target whose state equals its state in [f], while the
    fault-free state equals [f]'s too, is retired with the time
    [rejoin.det_time.(id) - shift] ([-1] stays [-1]): from [q] on both
    machines replay [R] from [step f] on, so the fault is detected
    exactly [shift] steps before [R] detects it. [f] must hold the
    fault, i.e. [R] had not detected it before [step f]. The recorded
    fault-free states follow the same rule: once it equalled a rejoin
    frontier's, a recorded step that is a rejoin step takes that
    frontier's fault-free state instead of materialising the trace
    there. A wrong [shift] or frontier gives wrong times: the caller
    guarantees the inputs repeat. A [block] length with [record] or
    [rejoin] is [Invalid_argument].

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
    following block that repeats the block before when two things
    hold: that block's inputs equal the previous block's, and every
    lane's flip-flop state, fault-free lane included, equals its state
    at [u - l]. A lane still live at [u] kept its forces through the
    previous block and did not detect in it, and a lane dropped since
    is a copy of the fault-free lane, so the skipped steps would replay
    the previous block, detect nothing and return each lane to the same
    state: the outcome is the one without [block]. The fault-free trace copies those blocks' rows
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
    and the shard's fault count. It adds the run's work to ten
    counters: ["fsim.groups"] (62-fault groups), ["fsim.group_steps"]
    (time steps simulated, summed over groups; jumped steps excluded),
    ["fsim.skipped_steps"] (the group-steps jumped past recurring
    blocks), ["fsim.dropped_lanes"] (lanes retired on detection, one per
    detected target), ["fsim.loaded_lanes"] (lanes started from
    [from]), ["fsim.rejoined_lanes"] (lanes retired on rejoining),
    ["fsim.recorded_lanes"] (lane states recorded for [record]),
    ["fsim.evaluations"] (the faulty machines' gate
    evaluations, {!Bist_sim.Ppsfp.evaluations} summed over shards),
    ["fsim.trace_steps"] (the fault-free steps a sequential run
    materialises, as many as its longest group reaches; each shard of a
    pooled run materialises its own trace, which this count does not add
    up; with [record], the steps swept for the recorded fault-free
    states count too) and ["fsim.trace_copies"] (how many of those were
    copied instead of swept). [counters] (default ["fsim"]) replaces
    the ["fsim"] of the span and counter names, so a caller can count a
    run's work apart. All ten are the same at every pool width: groups are
    cut the same way, a group's work depends only on its own faults, and
    copies depend only on the sequence.

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

val single_work : single -> (string * int) list
(** The work of every call on this [single] so far, named as {!run}'s
    counters without their prefix: ["group_steps"], ["skipped_steps"],
    ["evaluations"], ["trace_steps"] (steps materialised, summed over
    the sequences) and ["trace_copies"]. *)

val detects : Bist_circuit.Netlist.t -> Fault.t -> Bist_logic.Tseq.t -> bool
(** One-shot convenience wrapper around {!single}. *)
