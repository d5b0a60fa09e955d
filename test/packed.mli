(** Bit-parallel three-valued words.

    A [Packed.t] holds up to 63 independent three-valued signals ("lanes")
    in two native machine words: bit [i] of [ones] is set when lane [i]
    carries logic 1, bit [i] of [zeros] when it carries logic 0, and
    neither when it carries X. The invariant [ones land zeros = 0] holds
    for every value built through this interface. Native [int]s (63 bits
    on a 64-bit platform) are used instead of [int64] because they are
    unboxed — this kernel dominates fault-simulation time.

    The test suite's oracle kernel, [Packed_sim], runs the fault-free
    machine in lane 0 and up to 62 faulty machines in the remaining
    lanes and reports its values in these words; {!eval_gate} evaluates
    one gate for all lanes with a constant number of word operations.
    The library's kernel, [Bist_sim.Ppsfp], works on bare planes. *)

val lanes : int
(** 63. *)

type t = private { ones : int; zeros : int }

val all_x : t
(** Every lane X. *)

val all : Bist_logic.Ternary.t -> t
(** Every lane the given value. *)

val make : ones:int -> zeros:int -> t
(** Raises [Invalid_argument] if [ones land zeros <> 0]. *)

val get : t -> int -> Bist_logic.Ternary.t
(** Value of lane [i], [0 <= i < lanes]. *)

val set : t -> int -> Bist_logic.Ternary.t -> t
(** Functional update of lane [i]. *)

val equal : t -> t -> bool

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val nand : t -> t -> t
val nor : t -> t -> t
val xor : t -> t -> t
val xnor : t -> t -> t

val force : t -> mask:int -> Bist_logic.Ternary.t -> t
(** [force w ~mask v] replaces the lanes selected by [mask] with [v] —
    the fault-insertion primitive. *)

val diff_mask : t -> t -> int
(** [diff_mask good faulty] has bit [i] set when lane [i] holds opposite
    binary values in the two words — the per-lane detection condition. *)

val binary_mask : t -> int
(** Bits of lanes holding a binary (non-X) value. *)

val pp : Format.formatter -> t -> unit
(** Lanes [0..lanes-1], lane 0 first. *)

val eval_gate : Bist_circuit.Gate.kind -> t array -> t
(** {!Bist_circuit.Gate.eval} lane by lane. Raises [Invalid_argument]
    for [Input]/[Dff] or an arity violation. *)
