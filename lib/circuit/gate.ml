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

let kind_name = function
  | Input -> "INPUT"
  | Dff -> "DFF"
  | Buf -> "BUF"
  | Not -> "NOT"
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Const0 -> "CONST0"
  | Const1 -> "CONST1"

let kind_of_name s =
  match String.uppercase_ascii s with
  | "INPUT" -> Some Input
  | "DFF" -> Some Dff
  | "BUF" | "BUFF" -> Some Buf
  | "NOT" | "INV" -> Some Not
  | "AND" -> Some And
  | "NAND" -> Some Nand
  | "OR" -> Some Or
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | "CONST0" -> Some Const0
  | "CONST1" -> Some Const1
  | _ -> None

let arity_ok kind n =
  match kind with
  | Input | Const0 | Const1 -> n = 0
  | Dff | Buf | Not -> n = 1
  | And | Nand | Or | Nor | Xor | Xnor -> n >= 2

let is_combinational = function
  | Input | Dff -> false
  | Buf | Not | And | Nand | Or | Nor | Xor | Xnor | Const0 | Const1 -> true

let check kind inputs =
  if not (arity_ok kind (Array.length inputs)) then
    invalid_arg
      (Printf.sprintf "Gate.eval: %s with %d fanins" (kind_name kind) (Array.length inputs))

let fold_binop op seed inputs =
  let acc = ref seed in
  for i = 0 to Array.length inputs - 1 do
    acc := op !acc inputs.(i)
  done;
  !acc

let eval kind inputs =
  check kind inputs;
  let module T = Bist_logic.Ternary in
  match kind with
  | Input | Dff -> invalid_arg "Gate.eval: not combinational"
  | Const0 -> T.Zero
  | Const1 -> T.One
  | Buf -> inputs.(0)
  | Not -> T.not_ inputs.(0)
  | And -> fold_binop T.and_ T.One inputs
  | Nand -> T.not_ (fold_binop T.and_ T.One inputs)
  | Or -> fold_binop T.or_ T.Zero inputs
  | Nor -> T.not_ (fold_binop T.or_ T.Zero inputs)
  | Xor -> fold_binop T.xor T.Zero inputs
  | Xnor -> T.not_ (fold_binop T.xor T.Zero inputs)

let controlling_value = function
  | And | Nand -> Some Bist_logic.Ternary.Zero
  | Or | Nor -> Some Bist_logic.Ternary.One
  | Input | Dff | Buf | Not | Xor | Xnor | Const0 | Const1 -> None

let inversion = function
  | Not | Nand | Nor | Xnor -> true
  | Input | Dff | Buf | And | Or | Xor | Const0 | Const1 -> false
