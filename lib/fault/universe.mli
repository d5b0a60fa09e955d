(** Dense, indexed fault lists.

    The {e full} universe holds two faults per line: every node output,
    plus every gate input pin whose driving node branches (drives more
    than one pin). Pins of non-branching drivers are the same line as the
    driver's output, so they carry no separate fault.

    The {e collapsed} universe keeps one representative per structural
    equivalence class (see {!Collapse}); it is what the paper's "total
    faults" column counts.

    Every universe also fixes, at creation, a {e locality order} of its
    faults ({!by_rank}), the static fault order of parallel-fault
    sequential simulators such as PROOFS (Niermann, Cheng and Patel,
    IEEE TCAD 1992). A node's rank is its position in a depth-first
    postorder from the primary outputs through fanins: the walk crosses
    a flip-flop to its D driver, and the nodes no output reaches follow
    in id order. A fault ranks with its site, a pin fault with its gate.
    Faults of one fanin cone so sit side by side, and a 62-fault group
    filled in this order stirs fewer distinct gates than one filled in
    id order. The walk keeps its own stack and the sort is a counting
    sort: O(nodes + faults), once per universe. *)

type t

val full : Bist_circuit.Netlist.t -> t
val collapsed : Bist_circuit.Netlist.t -> t

val of_faults : Bist_circuit.Netlist.t -> Fault.t list -> t
(** Deduplicates; order of first occurrence. *)

val circuit : t -> Bist_circuit.Netlist.t
val size : t -> int
val get : t -> int -> Fault.t
val id_of : t -> Fault.t -> int option

val by_rank : t -> int array
(** Every fault id once, in locality order (ids ascending within one
    rank); a fresh array. *)

val iter : (int -> Fault.t -> unit) -> t -> unit
val fold : (int -> Fault.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Fault.t list
