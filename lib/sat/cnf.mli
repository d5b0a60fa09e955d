(** Shared CNF view of a netlist: dual-rail Tseitin encoding with
    k-frame time-frame expansion from the all-X reset state.

    The encoding mirrors {!Bist_sim.Ppsfp}'s two planes exactly —
    each line at each frame is a pair of rails [(one, zero)], both
    false meaning X — so SAT/UNSAT verdicts agree with
    {!Bist_fault.Fsim} on every input sequence of length [<= frames].
    Primary inputs are constrained binary, which is complete by
    ternary monotonicity (an X in a detecting sequence can always be
    specified without losing the detection).

    A view encodes the fault-free machine once; {!encode_fault} then
    emits one fault's faulty-cone copy plus two selector literals
    through a caller-supplied {!sink}, feeding either a fresh solver
    ({!load}) or the DIMACS exporter ({!Dimacs}). *)

type view

val view : frames:int -> Bist_circuit.Netlist.t -> view
(** Encode the fault-free machine for [frames] time frames. Raises
    [Invalid_argument] when [frames < 1]. *)

val circuit : view -> Bist_circuit.Netlist.t
val frames : view -> int

val base_vars : view -> int
(** Variables [0 .. base_vars - 1] are used by the fault-free
    encoding (variable 0 is the constant-true variable); per-fault
    variables must be allocated from [base_vars] up. *)

val iter_good_clauses : view -> (int array -> unit) -> unit
(** The fault-free clauses, starting with the constant-true unit.
    Clause arrays must not be mutated. *)

val num_good_clauses : view -> int

val pi_one_lit : view -> frame:int -> pi:int -> int
(** The one-rail literal of primary input [pi] (index into
    [Netlist.inputs]) at [frame] — true in a model iff the decoded
    input bit is 1. *)

val good_rails : view -> frame:int -> Bist_circuit.Netlist.node -> int * int
(** Fault-free [(one, zero)] rail literals of a node at a frame. *)

type sink = { fresh : unit -> int; emit : int array -> unit }
(** Clause receiver for {!encode_fault}: [fresh] allocates the next
    variable id, [emit] takes ownership of nothing (arrays are not
    retained by the encoder but must not be mutated by the sink). *)

type query = {
  excite : int;
      (** Assuming this literal asks: can the fault site's fault-free
          driver take the opposite of the stuck value within the
          bound? UNSAT proves the fault unexcitable in [frames]
          frames. *)
  detect : int;
      (** Assuming this literal asks: does some sequence of length
          [<= frames] detect the fault? A model decodes to a test via
          {!pi_one_lit}; UNSAT proves no such test exists. *)
}

val encode_fault : view -> sink -> Bist_fault.Fault.t -> query
(** Emit the faulty-machine cone copy, excitation and detection
    selectors for one fault. Deterministic: the same view and fault
    produce the same clauses and selector literals. *)

val load : view -> Bist_fault.Fault.t -> Solver.t * query
(** A fresh solver loaded with the view plus one fault's clauses. A
    new solver per fault keeps verdicts independent of query history,
    which the checkpoint/resume bit-identity invariant relies on. *)
