(** 63-lane packed sequential simulation with value forcing: the test
    suite's oracle kernel. The library's only fault-simulation kernel is
    {!Bist_sim.Ppsfp}; this plain full sweep, kept next to the tests,
    is what its results are compared against.

    Each of the 63 lanes is an independent copy of the circuit receiving
    the {e same} input vectors; lanes may differ only through forces
    installed with {!add_output_force} / {!add_pin_force}. Lane 0 holds
    the fault-free machine and each remaining lane one faulty machine.

    An {e output force} pins the value of a node (as seen by every
    consumer and by the primary-output logic) in the selected lanes. A
    {e pin force} pins the value seen by one specific fanin pin of one
    gate, leaving other consumers of the driving node unaffected — this is
    how fanout-branch stuck-at faults are modeled.

    Internally the simulator keeps the one-plane and zero-plane of every
    node in flat [int] arrays and evaluates every gate at every step. *)

type t

val create : Bist_circuit.Netlist.t -> t
(** All lanes reset (flip-flops X), no forces installed. *)

val circuit : t -> Bist_circuit.Netlist.t

val add_output_force :
  t -> Bist_circuit.Netlist.node -> mask:int -> Bist_logic.Ternary.t -> unit

val add_pin_force :
  t ->
  gate:Bist_circuit.Netlist.node ->
  pin:int ->
  mask:int ->
  Bist_logic.Ternary.t ->
  unit
(** [pin] indexes the gate's fanin array. *)

val clear_forces : t -> unit

val reset : t -> unit
(** Every flip-flop of every lane back to X. Forces stay installed. *)

val step : t -> Bist_logic.Vector.t -> unit
(** Apply one input vector to all lanes and advance the flip-flop state. *)

val po_value : t -> int -> Packed.t
(** Packed value of primary output [i] during the most recent {!step}. *)

val po_diff_lanes : t -> int
(** Lanes (other than lane 0) where {e some} primary output carried the
    binary complement of lane 0's binary value during the most recent
    {!step} — the detection mask, accumulated over all POs. *)

val node_value : t -> Bist_circuit.Netlist.node -> Packed.t
(** Value a node had during the most recent {!step}. *)

type snapshot
(** Captured flip-flop state of all lanes. *)

val save_state : t -> snapshot

val restore_state : t -> snapshot -> unit
(** Restore a snapshot taken from the same simulator (or one for the
    same circuit). The directed test generator uses this to branch many
    candidate suffixes off one simulated prefix. *)

val state_diff_lanes : t -> int
(** Lanes whose current flip-flop state differs (in opposite binary
    values) from lane 0's — a progress measure for guided search. *)

val state_diff_count : t -> lane:int -> int
(** Number of flip-flops whose current state in the given lane is the
    binary complement of lane 0's. *)

val lane_state : t -> lane:int -> Bist_logic.Ternary.t array
(** The present flip-flop state of one lane (0..62), one value per
    flip-flop in {!Bist_circuit.Netlist.dffs} order. *)

val load_lane : t -> lane:int -> Bist_logic.Ternary.t array -> unit
(** Put one lane (0..62) in the given flip-flop state, in the same
    order; the other lanes keep theirs. *)
