(** Gate-level primitives of the ISCAS-89 netlist format.

    [Input] nodes are primary inputs; [Dff] nodes are D flip-flops whose
    single fanin is sampled at each clock edge. All other kinds are
    combinational with the usual semantics. *)

type kind =
  | Input
  | Dff
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor
  | Const0
  | Const1

val kind_name : kind -> string
(** Upper-case ISCAS-89 keyword ("AND", "DFF", ...). [Input] renders as
    "INPUT". *)

val kind_of_name : string -> kind option
(** Case-insensitive; accepts both "BUF" and "BUFF". *)

val arity_ok : kind -> int -> bool
(** Whether a gate of this kind may have the given number of fanins. *)

val is_combinational : kind -> bool
(** False exactly for [Input] and [Dff]. *)

val eval : kind -> Bist_logic.Ternary.t array -> Bist_logic.Ternary.t
(** Combinational evaluation over scalar ternary values. Raises
    [Invalid_argument] for [Input]/[Dff] or an arity violation. *)

val controlling_value : kind -> Bist_logic.Ternary.t option
(** The input value that forces the output regardless of other inputs
    (0 for AND/NAND, 1 for OR/NOR); [None] for the other kinds. *)

val inversion : kind -> bool
(** Whether the gate inverts its controlled/parity result (NOT, NAND,
    NOR, XNOR). *)
