type t = {
  name : string;
  num_inputs : int;
  num_outputs : int;
  num_dffs : int;
  num_gates : int;
  max_level : int;
  max_fanin : int;
  max_fanout : int;
}

(* Plain loops: every [Ppsfp.create] calls this, and a closure over
   [best] would allocate a ref per node. Sources are not in the
   topological order, so their level stays 0. *)
let levels c =
  let lv = Array.make (Netlist.size c) 0 in
  let topo = Netlist.topo_order c in
  for i = 0 to Array.length topo - 1 do
    let fanins = Netlist.fanins c topo.(i) in
    let best = ref 0 in
    for j = 0 to Array.length fanins - 1 do
      if lv.(fanins.(j)) > !best then best := lv.(fanins.(j))
    done;
    lv.(topo.(i)) <- !best + 1
  done;
  lv

let of_netlist c =
  let lv = levels c in
  let max_level = Array.fold_left max 0 lv in
  let max_fanin = ref 0 and max_fanout = ref 0 in
  for n = 0 to Netlist.size c - 1 do
    max_fanin := max !max_fanin (Array.length (Netlist.fanins c n));
    max_fanout := max !max_fanout (Netlist.fanout_count c n)
  done;
  {
    name = Netlist.circuit_name c;
    num_inputs = Netlist.num_inputs c;
    num_outputs = Netlist.num_outputs c;
    num_dffs = Netlist.num_dffs c;
    num_gates = Netlist.num_gates c;
    max_level;
    max_fanin = !max_fanin;
    max_fanout = !max_fanout;
  }

let pp fmt t =
  Format.fprintf fmt
    "%s: %d PIs, %d POs, %d FFs, %d gates, depth %d, max fanin %d, max fanout %d"
    t.name t.num_inputs t.num_outputs t.num_dffs t.num_gates t.max_level
    t.max_fanin t.max_fanout
