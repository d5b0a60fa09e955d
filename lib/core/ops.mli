(** The sequence manipulations of Section 2 and their composition.

    The full expansion of a stored sequence [S] with [n] repetitions is

    {v
    S'exp   = S^n                         (repetition)
    S''exp  = S'exp . complement(S'exp)   (complementation)
    S'''exp = S''exp . (S''exp << 1)      (circular left shift)
    Sexp    = S'''exp . reverse(S'''exp)  (reversal)
    v}

    so [length Sexp = 8 * n * length S]. Partial operator sets (for the
    ablation benchmarks) apply the same pipeline with stages disabled;
    every variant leaves [S] itself as a prefix of the result, which is
    what guarantees that an expanded sequence detects at least the faults
    its seed detects. *)

type operator = Repeat | Complement | Shift | Reverse

val all_operators : operator list
(** The paper's pipeline, in order. *)

val expand : n:int -> Bist_logic.Tseq.t -> Bist_logic.Tseq.t
(** Full expansion; [n >= 1]. *)

val expand_with : operators:operator list -> n:int -> Bist_logic.Tseq.t -> Bist_logic.Tseq.t
(** Expansion with a subset of stages. [Repeat] uses the given [n]; the
    listed operators are applied in the fixed pipeline order regardless
    of list order. *)

val expansion_factor : operators:operator list -> n:int -> int
(** Length multiplier of {!expand_with}: 8·n for the full set. *)

val expanded_length : n:int -> int -> int
(** [expanded_length ~n len = 8 * n * len]. *)

val block_length :
  operators:operator list -> n:int -> Bist_logic.Tseq.t -> int option
(** The block length to simulate [expand_with ~operators ~n seq] with
    ({!Bist_fault.Fsim.run}[ ?block]): [Some (length seq)] when the
    operators include [Repeat] and [n >= 2], else [None]. Every later
    stage maps or concatenates whole [|S|]-vector blocks, so each of the
    expansion's segments is [n] blocks, most of which repeat the one
    before. *)
