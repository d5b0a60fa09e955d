module Netlist = Bist_circuit.Netlist

type t = {
  circuit : Netlist.t;
  faults : Fault.t array;
  index : (Fault.t, int) Hashtbl.t;
  by_rank : int array; (* fault ids, by the rank of their site *)
}

(* Every node's position in a depth-first postorder from the primary
   outputs through fanins (a flip-flop's one fanin is its D driver),
   then the unreached nodes in id order. The walk keeps its own stack:
   [next.(v)] is the next fanin of open node [v] to visit. *)
let node_ranks c =
  let n = Netlist.size c in
  let rank = Array.make n (-1) and next = Array.make n 0 in
  let seen = Bytes.make n '\000' in
  let stack = Array.make n 0 and sp = ref 0 and count = ref 0 in
  let push v =
    if Bytes.get seen v = '\000' then begin
      Bytes.set seen v '\001';
      stack.(!sp) <- v;
      incr sp
    end
  in
  let number v =
    rank.(v) <- !count;
    incr count
  in
  Array.iter
    (fun po ->
      push po;
      while !sp > 0 do
        let v = stack.(!sp - 1) in
        let fi = Netlist.fanins c v in
        if next.(v) < Array.length fi then begin
          next.(v) <- next.(v) + 1;
          push fi.(next.(v) - 1)
        end
        else begin
          decr sp;
          number v
        end
      done)
    (Netlist.outputs c);
  for v = 0 to n - 1 do
    if rank.(v) < 0 then number v
  done;
  rank

(* Fault ids by the rank of their site (a pin fault ranks with its
   gate), ids ascending within a rank: a counting sort. *)
let order_by_rank circuit faults =
  let rank = node_ranks circuit in
  let site_rank (f : Fault.t) =
    match f.site with Fault.Output v -> rank.(v) | Fault.Pin { gate; _ } -> rank.(gate)
  in
  let start = Array.make (Netlist.size circuit + 1) 0 in
  Array.iter (fun f -> start.(site_rank f + 1) <- start.(site_rank f + 1) + 1) faults;
  for r = 1 to Netlist.size circuit do
    start.(r) <- start.(r) + start.(r - 1)
  done;
  let order = Array.make (Array.length faults) 0 in
  Array.iteri
    (fun id f ->
      let r = site_rank f in
      order.(start.(r)) <- id;
      start.(r) <- start.(r) + 1)
    faults;
  order

let of_faults circuit faults =
  let index = Hashtbl.create 256 in
  let keep =
    List.filter
      (fun f ->
        if Hashtbl.mem index f then false
        else begin
          Hashtbl.add index f (Hashtbl.length index);
          true
        end)
      faults
  in
  let faults = Array.of_list keep in
  { circuit; faults; index; by_rank = order_by_rank circuit faults }

let full c = of_faults c (Fault.full_list c)

let collapsed c = of_faults c (Collapse.representatives c)

let circuit t = t.circuit
let size t = Array.length t.faults
let get t i = t.faults.(i)
let id_of t f = Hashtbl.find_opt t.index f
let by_rank t = Array.copy t.by_rank
let iter f t = Array.iteri f t.faults
let fold f t init =
  let acc = ref init in
  Array.iteri (fun i fault -> acc := f i fault !acc) t.faults;
  !acc
let to_list t = Array.to_list t.faults
