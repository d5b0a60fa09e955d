module Ternary = Bist_logic.Ternary
module Gate = Bist_circuit.Gate

let lanes = 63

type t = { ones : int; zeros : int }

let all_x = { ones = 0; zeros = 0 }

let full = -1 (* all 63 bits set *)

let all = function
  | Ternary.Zero -> { ones = 0; zeros = full }
  | Ternary.One -> { ones = full; zeros = 0 }
  | Ternary.X -> all_x

let make ~ones ~zeros =
  if ones land zeros <> 0 then invalid_arg "Packed.make: ones and zeros overlap";
  { ones; zeros }

let check_lane i = if i < 0 || i >= lanes then invalid_arg "Packed: lane out of range"

let get w i =
  check_lane i;
  if w.ones land (1 lsl i) <> 0 then Ternary.One
  else if w.zeros land (1 lsl i) <> 0 then Ternary.Zero
  else Ternary.X

let set w i v =
  check_lane i;
  let m = 1 lsl i in
  let keep = lnot m in
  match v with
  | Ternary.One -> { ones = w.ones land keep lor m; zeros = w.zeros land keep }
  | Ternary.Zero -> { ones = w.ones land keep; zeros = w.zeros land keep lor m }
  | Ternary.X -> { ones = w.ones land keep; zeros = w.zeros land keep }

let equal a b = a.ones = b.ones && a.zeros = b.zeros

let not_ w = { ones = w.zeros; zeros = w.ones }

let and_ a b = { ones = a.ones land b.ones; zeros = a.zeros lor b.zeros }
let or_ a b = { ones = a.ones lor b.ones; zeros = a.zeros land b.zeros }
let nand a b = not_ (and_ a b)
let nor a b = not_ (or_ a b)

let xor a b =
  {
    ones = (a.ones land b.zeros) lor (a.zeros land b.ones);
    zeros = (a.ones land b.ones) lor (a.zeros land b.zeros);
  }

let xnor a b = not_ (xor a b)

let force w ~mask v =
  let keep = lnot mask in
  let ones = w.ones land keep in
  let zeros = w.zeros land keep in
  match v with
  | Ternary.One -> { ones = ones lor mask; zeros }
  | Ternary.Zero -> { ones; zeros = zeros lor mask }
  | Ternary.X -> { ones; zeros }

let diff_mask good faulty =
  (good.ones land faulty.zeros) lor (good.zeros land faulty.ones)

let binary_mask w = w.ones lor w.zeros

let pp fmt w =
  for i = 0 to lanes - 1 do
    Format.pp_print_char fmt (Ternary.to_char (get w i))
  done

let eval_gate kind inputs =
  if not (Gate.arity_ok kind (Array.length inputs)) then
    invalid_arg "Packed.eval_gate: arity";
  let fold op seed = Array.fold_left op seed inputs in
  match kind with
  | Gate.Input | Gate.Dff -> invalid_arg "Packed.eval_gate: not combinational"
  | Gate.Const0 -> all Ternary.Zero
  | Gate.Const1 -> all Ternary.One
  | Gate.Buf -> inputs.(0)
  | Gate.Not -> not_ inputs.(0)
  | Gate.And -> fold and_ (all Ternary.One)
  | Gate.Nand -> not_ (fold and_ (all Ternary.One))
  | Gate.Or -> fold or_ (all Ternary.Zero)
  | Gate.Nor -> not_ (fold or_ (all Ternary.Zero))
  | Gate.Xor -> fold xor (all Ternary.Zero)
  | Gate.Xnor -> not_ (fold xor (all Ternary.Zero))
