(** PPSFP: parallel-pattern single-fault-propagation packed fault kernel,
    the one fault-simulation kernel of the library.

    Each of the 63 lanes of a packed word is an independent copy of the
    circuit receiving the same input vectors: lane 0 is the fault-free
    machine, lanes 1..62 are faulty machines selected by force masks. An
    {e output force} pins the value of a node in the selected lanes; a
    {e pin force} pins the value one gate sees on one fanin pin, which is
    how fanout-branch stuck-at faults are modeled. The kernel is built for
    throughput when many 62-fault groups are simulated over the same
    sequence:

    - the {e good machine} is simulated once per sequence into a shared
      {!trace}; every group pass reads good values out of the trace
      instead of recomputing them. {!create} compiles that sweep into a
      flat program of [(node, a, b, row)] entries over a 160-byte table
      built from {!Bist_circuit.Gate.eval}, so a trace step is one table
      lookup per entry with no dispatch on gate kind (gates of three or
      more fanins fold over extra entries);
    - gates are evaluated {e event-driven} over a levelized flat-array
      program: a gate runs only when a fanin's packed word actually
      differs from the fault-free broadcast, or when one of its forces
      disagrees with the fault-free value it overrides (X disagrees with
      both stuck values), so quiescent levels and unactivated faults
      cost nothing;
    - only the flip-flops whose state deviates from the good machine
      keep packed state; a step seeds those and the output-forced
      sources, and clocks only the flip-flops whose D input deviates or
      whose D-pin force is activated. Every other flip-flop is the
      broadcast of its good value, read from the trace, and is written
      out only by {!save_state};
    - when measured activity says most of the circuit is live anyway, the
      step switches to a {e compiled} full sweep and back once activity
      decays — the hybrid is self-tuning per group;
    - {!drop_lanes} retires detected faults mid-sequence: their forces
      are masked out and their flip-flop lanes snap back to the good
      machine, so a detected fault stops generating events;
    - a trace given a {e block length} [l] (a repeated expansion's [|S|])
      copies a block's rows from the block before when the two blocks'
      inputs are equal and the good machine enters both in the same
      state, and a group pass may jump the same way over blocks in which
      {e every} lane would repeat itself ({!mark}, {!recurs},
      {!repeats}).

    Internally the kernel renumbers the nodes (inputs, flip-flops, then
    gates by level) and keeps each node's hot data in one interleaved
    record. Those ids are private: every call below takes netlist ids
    and pin indices into {!Bist_circuit.Netlist.fanins}.

    Every step produces bit-identical planes to a plain full-sweep packed
    simulator on the same forces and inputs. That simulator,
    [Packed_sim], lives in the test suite as the differential oracle;
    the suite enforces the identity (with forces on flip-flops and on
    gates whose good value is X, lanes dropped mid-run and runs moved
    into a fresh simulator through a snapshot), and checks the trace
    itself against [Gate.eval] (every kind and arity up to 4, all
    ternary inputs) and {!Bist_sim.Seq_sim} (every node at every
    step). *)

type t

val create : Bist_circuit.Netlist.t -> t
(** Compile the node record, the levelized program and the fault-free
    sweep, with no per-node allocation. All lanes reset, no forces. *)

val circuit : t -> Bist_circuit.Netlist.t

type trace
(** Fault-free machine values for every node at every simulated time
    step, grown lazily as steps are requested. A materialized step does
    not change until {!retrace}, so a trace may be shared by many
    simulator instances over the same circuit — but only within one
    domain: growth is not synchronized. *)

val trace : ?block:int -> t -> Bist_logic.Tseq.t -> trace
(** A fresh (empty) trace of [seq] for this simulator's circuit.

    With [block] (a length [l >= 1], else [Invalid_argument]), block [k]
    is steps [\[k l, (k + 1) l)]; only whole blocks count. When the
    trace reaches the start [u] of block [k >= 1], block [k]'s input
    vectors equal block [k - 1]'s, and the fault-free state at [u]
    equals the one at [u - l], block [k] would replay block [k - 1] step
    for step and end in the state it started in. Its rows are then
    copied from block [k - 1] instead of swept, and the state stays. The
    test is on the actual vectors and states, so any [l] gives the same
    rows: a length that is not the sequence's period only finds fewer
    blocks to copy. *)

val trace_length : trace -> int
(** Steps materialized so far, swept or copied. *)

val trace_copies : trace -> int
(** Of those, the steps copied from the block before. *)

val repeats : trace -> int -> int
(** [repeats trace u] is the number of steps from [u] on, in whole
    blocks, whose input vectors repeat the block before them: [m l] for
    the longest run of blocks [u / l, ..., u / l + m - 1] each equal to
    its predecessor. It is [0] unless the trace has a block length [l]
    and [u] is a positive multiple of it. Vectors are compared once per
    block and trace start. *)

type snapshot
(** The packed flip-flop state of all lanes. *)

val retrace : ?from:snapshot -> ?block:int -> trace -> Bist_logic.Tseq.t -> unit
(** Restart the trace on a new sequence, keeping its buffer: a caller
    that simulates many short candidate sequences allocates one buffer,
    not one per candidate. The fault-free machine starts all-X, or in
    lane 0 of [from] (the state a {!restore_state} of the same snapshot
    gives lane 0). [block] is the new sequence's block length, as in
    {!trace} (default: none). Steps materialized before are discarded,
    so no simulator may be part-way through the old sequence. *)

val good_value : trace -> int -> Bist_circuit.Netlist.node -> Bist_logic.Ternary.t
(** [good_value trace u node] is the fault-free value of [node] at time
    step [u], which must already be materialized (a {!step} at [u] has
    run on this trace). *)

val add_output_force :
  t -> Bist_circuit.Netlist.node -> mask:int -> Bist_logic.Ternary.t -> unit

val add_pin_force :
  t ->
  gate:Bist_circuit.Netlist.node ->
  pin:int ->
  mask:int ->
  Bist_logic.Ternary.t ->
  unit

val clear_forces : t -> unit

val reset : t -> unit
(** Every flip-flop of every lane back to X; re-arms event mode. Forces
    stay installed. *)

val step : t -> trace -> int -> unit
(** [step t trace u] applies time step [u] of the trace's sequence to all
    lanes and advances the flip-flop state. Steps must be applied in
    order from 0 after a {!reset}, or after a {!restore_state} on a trace
    started from the same snapshot ({!retrace}[ ~from]), with one kind of
    jump allowed. Let [l] be the trace's block length and [u] a multiple
    of it: if the simulator was {!mark}ed before the step at [u - l],
    no force changed since (no {!drop_lanes}, no force added or
    cleared), and {!recurs} holds after the step at [u - 1], then the
    next step may be [u + repeats trace u]. Each skipped block would
    replay the block before it in every lane, so it would detect
    nothing and leave every lane's state as it is. Raises
    [Invalid_argument] if the trace belongs to a different circuit or
    [u] is out of range. *)

val po_diff_lanes : t -> int
(** Detection mask of the most recent {!step}: lanes (other than 0) where
    some primary output carried the binary complement of the fault-free
    binary value. *)

val mark : t -> unit
(** Remember the present flip-flop state of every lane, lane 0 included,
    for {!recurs}. Costs one pass over the flip-flops and allocates
    nothing. *)

val recurs : t -> bool
(** Whether the present flip-flop state of every lane, lane 0 included,
    equals the state at the last {!mark}. False when there was no mark
    since the last {!reset} or {!restore_state}. *)

val save_state : t -> snapshot

val restore_state : t -> snapshot -> unit
(** Put back the flip-flop state of every lane, and re-arm event mode
    as {!reset} does. Forces stay installed. The directed search branches
    many candidate suffixes off one simulated prefix this way. *)

val state_diff_count : t -> lane:int -> int
(** Flip-flops whose present state in [lane] (1..62) is the binary
    complement of lane 0's binary value. *)

val drop_lanes : t -> int -> unit
(** Retire the given lanes (a mask, lane 0 ignored): all their forces are
    removed and their flip-flop state is overwritten with the fault-free
    machine's, so the lanes become quiescent copies of lane 0 from the
    next step on. Detection times already read are unaffected; the
    remaining lanes are bit-for-bit unaffected (lanes are independent). *)

val evaluations : t -> int
(** Cumulative gate evaluations — the activity measure benchmarks and
    tests use to see the event core actually skipping work. *)

val full_steps : t -> int
(** Steps executed in compiled full-sweep mode since creation. *)

val event_steps : t -> int
(** Steps executed in event-driven mode since creation. *)
