module T = Bist_logic.Ternary
module P = Packed
module Netlist = Bist_circuit.Netlist
module Gate = Bist_circuit.Gate

(* Forces are compiled into per-node masks: [f1]/[f0] select lanes pinned
   to 1/0. Applying them to a plane pair is branch-free:
     ones  := (ones  land lnot (f1 lor f0)) lor f1
     zeros := (zeros land lnot (f1 lor f0)) lor f0

   The evaluation loop uses unsafe array accesses (indices come from the compiled program, which
   is validated at construction) and accumulates into mutable fields of
   [t] instead of ref cells to keep the loop allocation-free. *)

type t = {
  circuit : Netlist.t;
  ones : int array; (* per-node one-plane, current step *)
  zeros : int array;
  state_ones : int array; (* per-FF present state, dffs order *)
  state_zeros : int array;
  out_f1 : int array; (* per-node output-force masks *)
  out_f0 : int array;
  mutable pin_forced_gates : int list; (* gates with at least one pin force *)
  pin_f1 : int array array; (* per-gate per-pin masks; [||] when none *)
  pin_f0 : int array array;
  mutable diff_lanes : int; (* detection mask of the last step *)
  mutable acc_o : int; (* loop accumulators, see header comment *)
  mutable acc_z : int;
  (* encoded combinational program, see [kind_code]: CSR layout keeps the
     evaluation loop on contiguous ints. *)
  prog_node : int array;
  prog_kind : int array;
  prog_off : int array; (* start of each gate's fanins in [prog_fan] *)
  prog_len : int array;
  prog_fan : int array;
  prog_fanins : int array array; (* per-gate view, for the forced path *)
}

let kind_code = function
  | Gate.Buf -> 0
  | Gate.Not -> 1
  | Gate.And -> 2
  | Gate.Nand -> 3
  | Gate.Or -> 4
  | Gate.Nor -> 5
  | Gate.Xor -> 6
  | Gate.Xnor -> 7
  | Gate.Const0 -> 8
  | Gate.Const1 -> 9
  | Gate.Input | Gate.Dff -> invalid_arg "Packed_sim: not combinational"

let create circuit =
  let n = Netlist.size circuit in
  let topo = Netlist.topo_order circuit in
  let fanins = Array.map (fun g -> Netlist.fanins circuit g) topo in
  let total_fan = Array.fold_left (fun acc f -> acc + Array.length f) 0 fanins in
  let prog_off = Array.make (Array.length topo) 0 in
  let prog_len = Array.make (Array.length topo) 0 in
  let prog_fan = Array.make (max 1 total_fan) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun i f ->
      prog_off.(i) <- !pos;
      prog_len.(i) <- Array.length f;
      Array.iter
        (fun d ->
          prog_fan.(!pos) <- d;
          incr pos)
        f)
    fanins;
  {
    circuit;
    ones = Array.make n 0;
    zeros = Array.make n 0;
    state_ones = Array.make (Netlist.num_dffs circuit) 0;
    state_zeros = Array.make (Netlist.num_dffs circuit) 0;
    out_f1 = Array.make n 0;
    out_f0 = Array.make n 0;
    pin_forced_gates = [];
    pin_f1 = Array.make n [||];
    pin_f0 = Array.make n [||];
    diff_lanes = 0;
    acc_o = 0;
    acc_z = 0;
    prog_node = Array.copy topo;
    prog_kind = Array.map (fun g -> kind_code (Netlist.kind circuit g)) topo;
    prog_off;
    prog_len;
    prog_fan;
    prog_fanins = fanins;
  }

let circuit t = t.circuit

let check_mask mask =
  if mask land 1 <> 0 then
    invalid_arg "Packed_sim: lane 0 is reserved for the fault-free machine"

let add_output_force t node ~mask stuck =
  check_mask mask;
  match stuck with
  | T.One -> t.out_f1.(node) <- t.out_f1.(node) lor mask
  | T.Zero -> t.out_f0.(node) <- t.out_f0.(node) lor mask
  | T.X -> invalid_arg "Packed_sim.add_output_force: X"

let add_pin_force t ~gate ~pin ~mask stuck =
  check_mask mask;
  let arity = Array.length (Netlist.fanins t.circuit gate) in
  if pin < 0 || pin >= arity then invalid_arg "Packed_sim.add_pin_force: pin out of range";
  if Array.length t.pin_f1.(gate) = 0 then begin
    t.pin_f1.(gate) <- Array.make arity 0;
    t.pin_f0.(gate) <- Array.make arity 0;
    t.pin_forced_gates <- gate :: t.pin_forced_gates
  end;
  (match stuck with
   | T.One -> t.pin_f1.(gate).(pin) <- t.pin_f1.(gate).(pin) lor mask
   | T.Zero -> t.pin_f0.(gate).(pin) <- t.pin_f0.(gate).(pin) lor mask
   | T.X -> invalid_arg "Packed_sim.add_pin_force: X")

let clear_forces t =
  Array.fill t.out_f1 0 (Array.length t.out_f1) 0;
  Array.fill t.out_f0 0 (Array.length t.out_f0) 0;
  List.iter
    (fun g ->
      t.pin_f1.(g) <- [||];
      t.pin_f0.(g) <- [||])
    t.pin_forced_gates;
  t.pin_forced_gates <- []

let reset t =
  Array.fill t.state_ones 0 (Array.length t.state_ones) 0;
  Array.fill t.state_zeros 0 (Array.length t.state_zeros) 0

let full = -1

(* Fanin accumulation for a gate with no pin forces, into acc_o/acc_z.
   [off]/[k] index the CSR fanin table; the two-input case (the vast
   majority of gates) is unrolled. *)
let accumulate_plain t kind off k =
  let ones = t.ones and zeros = t.zeros in
  let fan = t.prog_fan in
  match kind with
  | 2 | 3 ->
    (* AND / NAND *)
    if k = 2 then begin
      let a = Array.unsafe_get fan off and b = Array.unsafe_get fan (off + 1) in
      t.acc_o <- Array.unsafe_get ones a land Array.unsafe_get ones b;
      t.acc_z <- Array.unsafe_get zeros a lor Array.unsafe_get zeros b
    end
    else begin
      let o = ref full and z = ref 0 in
      for i = off to off + k - 1 do
        let d = Array.unsafe_get fan i in
        o := !o land Array.unsafe_get ones d;
        z := !z lor Array.unsafe_get zeros d
      done;
      t.acc_o <- !o;
      t.acc_z <- !z
    end
  | 4 | 5 ->
    (* OR / NOR *)
    if k = 2 then begin
      let a = Array.unsafe_get fan off and b = Array.unsafe_get fan (off + 1) in
      t.acc_o <- Array.unsafe_get ones a lor Array.unsafe_get ones b;
      t.acc_z <- Array.unsafe_get zeros a land Array.unsafe_get zeros b
    end
    else begin
      let o = ref 0 and z = ref full in
      for i = off to off + k - 1 do
        let d = Array.unsafe_get fan i in
        o := !o lor Array.unsafe_get ones d;
        z := !z land Array.unsafe_get zeros d
      done;
      t.acc_o <- !o;
      t.acc_z <- !z
    end
  | 6 | 7 ->
    (* XOR / XNOR *)
    let o = ref 0 and z = ref full in
    for i = off to off + k - 1 do
      let d = Array.unsafe_get fan i in
      let io = Array.unsafe_get ones d and iz = Array.unsafe_get zeros d in
      let no = (!o land iz) lor (!z land io) in
      z := (!o land io) lor (!z land iz);
      o := no
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 0 | 1 ->
    let d = Array.unsafe_get fan off in
    t.acc_o <- Array.unsafe_get ones d;
    t.acc_z <- Array.unsafe_get zeros d
  | 8 ->
    t.acc_o <- 0;
    t.acc_z <- full
  | _ ->
    t.acc_o <- full;
    t.acc_z <- 0

(* Same, honouring the gate's per-pin force masks. Only reached for the
   handful of gates carrying branch faults in the current group. *)
let accumulate_forced t kind fanins k pf1 pf0 =
  let ones = t.ones and zeros = t.zeros in
  let pin i =
    let d = Array.unsafe_get fanins i in
    let f1 = Array.unsafe_get pf1 i and f0 = Array.unsafe_get pf0 i in
    let keep = lnot (f1 lor f0) in
    t.acc_o <- (Array.unsafe_get ones d land keep) lor f1;
    t.acc_z <- (Array.unsafe_get zeros d land keep) lor f0
  in
  match kind with
  | 2 | 3 ->
    let o = ref full and z = ref 0 in
    for i = 0 to k - 1 do
      pin i;
      o := !o land t.acc_o;
      z := !z lor t.acc_z
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 4 | 5 ->
    let o = ref 0 and z = ref full in
    for i = 0 to k - 1 do
      pin i;
      o := !o lor t.acc_o;
      z := !z land t.acc_z
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 6 | 7 ->
    let o = ref 0 and z = ref full in
    for i = 0 to k - 1 do
      pin i;
      let io = t.acc_o and iz = t.acc_z in
      let no = (!o land iz) lor (!z land io) in
      z := (!o land io) lor (!z land iz);
      o := no
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 0 | 1 -> pin 0
  | 8 ->
    t.acc_o <- 0;
    t.acc_z <- full
  | _ ->
    t.acc_o <- full;
    t.acc_z <- 0

let step t vec =
  let c = t.circuit in
  if Bist_logic.Vector.width vec <> Netlist.num_inputs c then
    invalid_arg "Packed_sim.step: vector width mismatch";
  let ones = t.ones and zeros = t.zeros in
  (* Load primary inputs (same value in all lanes) and present state. *)
  let pis = Netlist.inputs c in
  for i = 0 to Array.length pis - 1 do
    let node = Array.unsafe_get pis i in
    (match Bist_logic.Vector.get vec i with
     | T.One -> ones.(node) <- full; zeros.(node) <- 0
     | T.Zero -> ones.(node) <- 0; zeros.(node) <- full
     | T.X -> ones.(node) <- 0; zeros.(node) <- 0);
    let f1 = t.out_f1.(node) and f0 = t.out_f0.(node) in
    if f1 lor f0 <> 0 then begin
      let keep = lnot (f1 lor f0) in
      ones.(node) <- ones.(node) land keep lor f1;
      zeros.(node) <- zeros.(node) land keep lor f0
    end
  done;
  let dffs = Netlist.dffs c in
  for i = 0 to Array.length dffs - 1 do
    let node = Array.unsafe_get dffs i in
    let f1 = t.out_f1.(node) and f0 = t.out_f0.(node) in
    let keep = lnot (f1 lor f0) in
    ones.(node) <- t.state_ones.(i) land keep lor f1;
    zeros.(node) <- t.state_zeros.(i) land keep lor f0
  done;
  (* Combinational pass over the compiled program. *)
  let prog_node = t.prog_node and prog_kind = t.prog_kind in
  let prog_off = t.prog_off and prog_len = t.prog_len in
  let out_f1 = t.out_f1 and out_f0 = t.out_f0 in
  let pin_f1 = t.pin_f1 and pin_f0 = t.pin_f0 in
  for pc = 0 to Array.length prog_node - 1 do
    let node = Array.unsafe_get prog_node pc in
    let kind = Array.unsafe_get prog_kind pc in
    let k = Array.unsafe_get prog_len pc in
    let pf1 = Array.unsafe_get pin_f1 node in
    if Array.length pf1 = 0 then
      accumulate_plain t kind (Array.unsafe_get prog_off pc) k
    else
      accumulate_forced t kind
        (Array.unsafe_get t.prog_fanins pc)
        k pf1 (Array.unsafe_get pin_f0 node);
    (* Output inversion for the negated kinds (odd codes). *)
    let o, z =
      if kind land 1 = 1 && kind < 8 then (t.acc_z, t.acc_o) else (t.acc_o, t.acc_z)
    in
    let f1 = Array.unsafe_get out_f1 node and f0 = Array.unsafe_get out_f0 node in
    if f1 lor f0 <> 0 then begin
      let keep = lnot (f1 lor f0) in
      Array.unsafe_set ones node (o land keep lor f1);
      Array.unsafe_set zeros node (z land keep lor f0)
    end
    else begin
      Array.unsafe_set ones node o;
      Array.unsafe_set zeros node z
    end
  done;
  (* Detection mask over the primary outputs. *)
  let diff = ref 0 in
  let pos = Netlist.outputs c in
  for i = 0 to Array.length pos - 1 do
    let node = Array.unsafe_get pos i in
    let o = ones.(node) and z = zeros.(node) in
    if o land 1 <> 0 then diff := !diff lor z
    else if z land 1 <> 0 then diff := !diff lor o
  done;
  t.diff_lanes <- !diff land lnot 1;
  (* Clock the flip-flops through their (possibly pin-forced) D view. *)
  for i = 0 to Array.length dffs - 1 do
    let node = Array.unsafe_get dffs i in
    let d = (Netlist.fanins c node).(0) in
    let o = ref ones.(d) and z = ref zeros.(d) in
    if Array.length t.pin_f1.(node) <> 0 then begin
      let f1 = t.pin_f1.(node).(0) and f0 = t.pin_f0.(node).(0) in
      let keep = lnot (f1 lor f0) in
      o := !o land keep lor f1;
      z := !z land keep lor f0
    end;
    t.state_ones.(i) <- !o;
    t.state_zeros.(i) <- !z
  done

type snapshot = { snap_ones : int array; snap_zeros : int array }

let save_state t =
  { snap_ones = Array.copy t.state_ones; snap_zeros = Array.copy t.state_zeros }

let restore_state t s =
  if Array.length s.snap_ones <> Array.length t.state_ones then
    invalid_arg "Packed_sim.restore_state: different circuit";
  Array.blit s.snap_ones 0 t.state_ones 0 (Array.length s.snap_ones);
  Array.blit s.snap_zeros 0 t.state_zeros 0 (Array.length s.snap_zeros)

let state_diff_lanes t =
  let diff = ref 0 in
  for i = 0 to Array.length t.state_ones - 1 do
    let o = t.state_ones.(i) and z = t.state_zeros.(i) in
    if o land 1 <> 0 then diff := !diff lor z
    else if z land 1 <> 0 then diff := !diff lor o
  done;
  !diff land lnot 1

let state_diff_count t ~lane =
  if lane < 1 || lane >= 63 then invalid_arg "Packed_sim.state_diff_count: lane";
  let m = 1 lsl lane in
  let count = ref 0 in
  for i = 0 to Array.length t.state_ones - 1 do
    let o = t.state_ones.(i) and z = t.state_zeros.(i) in
    if (o land 1 <> 0 && z land m <> 0) || (z land 1 <> 0 && o land m <> 0) then
      incr count
  done;
  !count

let po_value t i =
  let node = (Netlist.outputs t.circuit).(i) in
  P.make ~ones:t.ones.(node) ~zeros:t.zeros.(node)

let po_diff_lanes t = t.diff_lanes

let node_value t n = P.make ~ones:t.ones.(n) ~zeros:t.zeros.(n)

let load_lane t ~lane state =
  if lane < 0 || lane >= 63 then invalid_arg "Packed_sim.load_lane: lane";
  if Array.length state <> Array.length t.state_ones then
    invalid_arg "Packed_sim.load_lane: one value per flip-flop";
  let m = 1 lsl lane in
  Array.iteri
    (fun i v ->
      let o = t.state_ones.(i) land lnot m and z = t.state_zeros.(i) land lnot m in
      t.state_ones.(i) <- (if v = T.One then o lor m else o);
      t.state_zeros.(i) <- (if v = T.Zero then z lor m else z))
    state

let lane_state t ~lane =
  if lane < 0 || lane >= 63 then invalid_arg "Packed_sim.lane_state: lane";
  Array.init (Array.length t.state_ones) (fun i ->
      match ((t.state_ones.(i) lsr lane) land 1, (t.state_zeros.(i) lsr lane) land 1) with
      | 1, 0 -> T.One
      | 0, 1 -> T.Zero
      | _ -> T.X)
