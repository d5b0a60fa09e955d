module Tseq = Bist_logic.Tseq

type operator = Repeat | Complement | Shift | Reverse

let all_operators = [ Repeat; Complement; Shift; Reverse ]

let expand_with ~operators ~n seq =
  if n < 1 then invalid_arg "Ops.expand_with: n must be >= 1";
  let has op = List.mem op operators in
  let s = if has Repeat then Tseq.repeat seq n else seq in
  let s = if has Complement then Tseq.concat s (Tseq.complement s) else s in
  let s = if has Shift then Tseq.concat s (Tseq.shift_left_circular s) else s in
  if has Reverse then Tseq.concat s (Tseq.reverse s) else s

let expand ~n seq = expand_with ~operators:all_operators ~n seq

let expansion_factor ~operators ~n =
  let has op = List.mem op operators in
  (if has Repeat then n else 1)
  * (if has Complement then 2 else 1)
  * (if has Shift then 2 else 1)
  * if has Reverse then 2 else 1

let expanded_length ~n len = 8 * n * len

let block_length ~operators ~n seq =
  if List.mem Repeat operators && n >= 2 && Tseq.length seq >= 1 then
    Some (Tseq.length seq)
  else None
