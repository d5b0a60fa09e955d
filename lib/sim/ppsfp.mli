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
      broadcast of its good value, read from the trace;
    - {!drop_lanes} retires detected faults mid-sequence: their forces
      are masked out and their flip-flop lanes snap back to the good
      machine, so a detected fault stops generating events;
    - a trace given a {e block length} [l] (a repeated expansion's [|S|])
      copies a block's rows from the block before when the two blocks'
      inputs are equal and the good machine enters both in the same
      state, and a group pass may jump the same way over blocks in which
      {e every} lane would repeat itself ({!mark}, {!recurs},
      {!repeats}).

    A second mode, {e candidate lanes}, runs one fault against up to
    {!max_candidates} different input sequences at once, each with its
    own fault-free and faulty machine and no shared trace (see below).

    Internally the kernel renumbers the nodes (inputs, flip-flops, then
    gates by level) and keeps each node's hot data in one interleaved
    record. Those ids are private: every call below takes netlist ids
    and pin indices into {!Bist_circuit.Netlist.fanins}.

    Every step produces bit-identical planes to a plain full-sweep packed
    simulator on the same forces and inputs. That simulator,
    [Packed_sim], lives in the test suite as the differential oracle;
    the suite enforces the identity (with forces on flip-flops and on
    gates whose good value is X, lanes dropped mid-run and runs moved
    into a fresh simulator through {!lane_state}, {!load} and
    {!load_lane}), compares candidate lanes with it run one candidate at
    a time, and checks the trace
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

val trace : ?block:int -> ?start:Bytes.t -> t -> Bist_logic.Tseq.t -> trace
(** A fresh (empty) trace of [seq] for this simulator's circuit. The
    fault-free machine starts all-X, or in the state [start]: one byte
    per flip-flop, in {!Bist_circuit.Netlist.dffs} order, each a trace
    code ([0] X, [1] One, [2] Zero; anything else is
    [Invalid_argument]). A group started by {!load} with the same codes
    reads this trace.

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

val retrace : ?block:int -> trace -> Bist_logic.Tseq.t -> unit
(** Restart the trace on a new sequence, keeping its buffer: a caller
    that simulates many short candidate sequences allocates one buffer,
    not one per candidate. The fault-free machine starts all-X. [block]
    is the new sequence's block length, as in {!trace} (default: none).
    Steps materialized before are discarded, so no simulator may be
    part-way through the old sequence. *)

val trace_state : trace -> int -> Bytes.t -> unit
(** [trace_state trace u codes] writes the fault-free state at step [u]
    (before step [u] applies; [u] may be the sequence's length, the
    state after its last step) into [codes], one trace code per
    flip-flop. Steps before [u] are materialised first. *)

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
(** Every flip-flop of every lane back to X; clears the detection mask
    and the {!mark}. Forces stay installed. *)

val step : t -> trace -> int -> unit
(** [step t trace u] applies time step [u] of the trace's sequence to all
    lanes and advances the flip-flop state. Steps must be applied in
    order from 0 after a {!reset}, or after a {!load} on a trace started
    from the same codes ({!trace}[ ~start]), with one kind of jump
    allowed. Let [l] be the trace's block length and [u] a multiple
    of it: if the simulator was {!mark}ed before the step at [u - l],
    no force was added or cleared since (lanes may have been dropped),
    and {!recurs} holds after the step at [u - 1], then the next step
    may be [u + repeats trace u]. Each skipped block would replay the
    block before it in every lane still forced, and a dropped lane is a
    copy of lane 0, so it would detect nothing new and leave every
    lane's state as it is. Raises
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
    since the last {!reset} or {!load}. *)

(** {2 Per-lane state}

    A lane's flip-flop state is one trace code per flip-flop, in
    {!Bist_circuit.Netlist.dffs} order: the form a fault simulator
    stores to start a fault again later, in any lane of any group
    ({!Bist_fault.Fsim.frontier}). *)

val load : t -> Bytes.t -> unit
(** Put every lane's flip-flops in the state given by the codes, and
    clear the detection mask and the {!mark} as {!reset} does; forces
    stay installed. The
    first step then reads a trace started from the same codes
    ({!trace}[ ~start]). *)

val load_lane : t -> lane:int -> Bytes.t -> unit
(** After {!load} and before the first step, put one lane (1..62) in the
    state given by the codes; the other lanes keep theirs. Each lane may
    be loaded once per {!load}. Raises [Invalid_argument] if a step ran
    since the last load. *)

val lane_state : t -> lane:int -> Bytes.t -> unit
(** Write the present flip-flop state of a lane (0..62; lane 0 is the
    fault-free machine) into the codes. Costs one pass over the
    flip-flops plus one over the flip-flops whose state deviates. In
    candidate mode, lane [k] is candidate [k]'s fault-free machine and
    lane [k + max_candidates] its faulty one. *)

val drop_lanes : t -> int -> unit
(** Retire the given lanes (a mask, lane 0 ignored): all their forces are
    removed and their flip-flop state is overwritten with the fault-free
    machine's, so the lanes become quiescent copies of lane 0 from the
    next step on. Detection times already read are unaffected; the
    remaining lanes are bit-for-bit unaffected (lanes are independent). *)

val evaluations : t -> int
(** Cumulative gate evaluations — the activity measure benchmarks and
    tests use to see the event core actually skipping work. *)

(** {2 Candidate lanes}

    One fault against many candidate sequences, as a genetic search
    scores a population: candidate [k] (below {!max_candidates}) runs its
    own input stream through its own fault-free machine, in lane [k], and
    its own faulty machine, in lane [k + max_candidates], so the fault's
    forces go on {!faulty_lanes}. Every candidate starts from the same
    given flip-flop codes, and all are stepped together by one full
    sweep of the levelized program per step: no trace, since the
    fault-free machines differ. A candidate stops at the end of its
    sequence and at the step it detects the fault, i.e. some primary
    output carries a binary value in its fault-free lane and the
    complement in its faulty lane. A stopped candidate's lanes keep the
    state that step left; what they compute in later steps, from X
    inputs, is never reported.

    Exactness: lanes are independent bitwise, so each candidate's two
    lanes compute what a one-fault simulation of that candidate alone
    computes, fault-free lane and faulty lane; the test suite compares
    every lane with [Packed_sim] run on one candidate at a time, step by
    step. A group {!step} needs a {!reset} or {!load} after candidate
    mode; forces stay installed throughout. *)

val max_candidates : int
(** 31: two lanes per candidate in a 63-lane word (lane 62 is unused). *)

val faulty_lanes : int
(** The lane mask of the candidates' faulty machines, lanes
    [max_candidates .. 2 * max_candidates - 1]: the mask a fault is
    installed with for candidate mode. *)

val load_candidates :
  t -> good:Bytes.t -> faulty:Bytes.t -> Bist_logic.Tseq.t array -> unit
(** Start a batch: candidate [k] runs [seqs.(k)], its fault-free machine
    from the codes [good] and its faulty one from [faulty] (one trace
    code per flip-flop, as for {!load}). Candidates with an empty
    sequence never run. Raises [Invalid_argument] on more than
    {!max_candidates} sequences, a sequence whose width is not the
    circuit's input count, or bad codes. *)

val step_candidates : t -> unit
(** Apply the next step to every running candidate; a no-op once none
    runs. *)

val running_candidates : t -> int
(** The candidates (bit [k] for candidate [k]) that the next
    {!step_candidates} steps. *)

val detected_candidates : t -> int
(** The candidates that detected the fault at the last
    {!step_candidates}; they have stopped. *)

val candidates_at : t -> Bist_circuit.Netlist.node -> Bist_logic.Ternary.t -> int
(** [candidates_at t node v] is the candidates whose fault-free machine
    carried [v] at [node] in the last {!step_candidates}; meaningful for
    the candidates it stepped. *)

val candidate_divergence : t -> int array -> unit
(** [candidate_divergence t counts] writes into [counts.(k)], for every
    candidate [k] of the batch below [Array.length counts], the
    flip-flops whose state in its faulty machine is the binary
    complement of its fault-free machine's binary value. *)
