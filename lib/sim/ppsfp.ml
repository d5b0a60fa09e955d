module T = Bist_logic.Ternary
module Tseq = Bist_logic.Tseq
module Netlist = Bist_circuit.Netlist
module Gate = Bist_circuit.Gate

(* The kernel works on a two-plane packed encoding: ones/zeros ints, one
   lane per bit, lane 0 = fault-free machine. What it saves is
   evaluation. The fault-free machine is simulated once per sequence into
   a byte-per-node-per-step trace; a group pass then evaluates a gate
   only when one of its fanins' packed words actually differs from the
   fault-free broadcast (or the gate carries a force). A node without a
   current-step value stamp implicitly holds the broadcast of its trace
   byte.

   "Differs from fault-free" is checked against lane 0 of the word
   itself: lane 0 is never forced, so a word is clean iff every lane
   equals lane 0, i.e. [ones = -(ones land 1) && zeros = -(zeros land 1)].

   Trace bytes encode a ternary value in two bits: bit 0 = one-plane,
   bit 1 = zero-plane (1 = One, 2 = Zero, 0 = X). Broadcasting a byte to
   a packed plane is [-(code land 1)] / [-((code lsr 1) land 1)].

   The fault-free machine is swept by a compiled program over those
   codes: [create] lays every combinational node, in level order, into
   flat [(node, a, b, row)] entries, and a step stores
   [table.[row + 4 * code a + code b]] at [node] for each entry, with no
   dispatch on gate kind. *)

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
  | Gate.Input -> -1
  | Gate.Dff -> -2

let code_of_ternary = function T.One -> 1 | T.Zero -> 2 | T.X -> 0

(* Code 3 never occurs in a trace; it reads as X. *)
let ternary_of_code = function 1 -> T.One | 2 -> T.Zero | _ -> T.X

(* The 2-bit code of [kind] applied to codes [a] and [b], at index
   [16 * kind_code kind + 4 * a + b], from [Gate.eval]: one-input kinds
   read [a], constants read nothing. *)
let table =
  let kinds =
    Gate.[| Buf; Not; And; Nand; Or; Nor; Xor; Xnor; Const0; Const1 |]
  in
  String.init 160 (fun i ->
      let kind = kinds.(i / 16) in
      let a = ternary_of_code ((i lsr 2) land 3) and b = ternary_of_code (i land 3) in
      let inputs =
        match kind with
        | Gate.Buf | Gate.Not -> [| a |]
        | Gate.Const0 | Gate.Const1 -> [||]
        | _ -> [| a; b |]
      in
      Char.chr (code_of_ternary (Gate.eval kind inputs)))

type t = {
  circuit : Netlist.t;
  n : int;
  (* flat program, indexed by node *)
  nkind : int array;
  nfan_off : int array;
  nfan_len : int array;
  nfan : int array; (* CSR fanins of every node *)
  nfo_off : int array;
  nfo_len : int array;
  nfo : int array; (* CSR combinational consumers of every node *)
  level_of : int array;
  max_level : int;
  topo : int array; (* combinational nodes, level order *)
  prog : int array; (* the fault-free sweep, 4 ints per entry *)
  pis : int array;
  pos : int array;
  dff_nodes : int array;
  dff_d : int array; (* D driver per flip-flop *)
  (* per-step packed planes; valid only where [vstamp = step_id] *)
  ones : int array;
  zeros : int array;
  vstamp : int array;
  state_ones : int array;
  state_zeros : int array;
  ff_dirty : bool array; (* state differs from the fault-free machine *)
  (* level buckets of scheduled gates; [sstamp] deduplicates per step *)
  buckets : int array array;
  bucket_len : int array;
  sstamp : int array;
  (* forces *)
  out_f1 : int array;
  out_f0 : int array;
  pin_f1 : int array array;
  pin_f0 : int array array;
  mutable out_forced_nodes : int list;
  mutable out_forced_pis : int list;
  mutable out_forced_comb : int list;
  mutable out_forced_ffs : int list; (* flip-flop indices *)
  ff_forced : bool array;
  mutable pin_forced_comb : int list;
  mutable pin_forced_dffs : int list;
  (* step-local registers *)
  mutable step_id : int;
  mutable trd : Bytes.t; (* current trace data *)
  mutable tr_base : int; (* offset of the current step in [trd] *)
  mutable diff_lanes : int;
  mutable acc_o : int;
  mutable acc_z : int;
  mutable rd_o : int;
  mutable rd_z : int;
  (* hybrid mode control *)
  mutable full_mode : bool;
  mutable activity : float; (* EWMA of evaluated-gate fraction *)
  mutable evals : int;
  mutable n_full_steps : int;
  mutable n_event_steps : int;
}

let create circuit =
  let n = Netlist.size circuit in
  let levels = Bist_circuit.Stats.levels circuit in
  let max_level = Array.fold_left max 0 levels in
  let nkind = Array.init n (fun node -> kind_code (Netlist.kind circuit node)) in
  let comb node = nkind.(node) >= 0 in
  (* Compressed sparse rows of the [keep] members of [edges node], in
     two passes: count, then fill. *)
  let csr edges keep =
    let off = Array.make n 0 in
    let len = Array.make n 0 in
    let total = ref 0 in
    for node = 0 to n - 1 do
      let e = edges node in
      off.(node) <- !total;
      for i = 0 to Array.length e - 1 do
        if keep e.(i) then len.(node) <- len.(node) + 1
      done;
      total := !total + len.(node)
    done;
    let dat = Array.make (max 1 !total) 0 in
    for node = 0 to n - 1 do
      let e = edges node in
      let pos = ref off.(node) in
      for i = 0 to Array.length e - 1 do
        if keep e.(i) then begin
          dat.(!pos) <- e.(i);
          incr pos
        end
      done
    done;
    (off, len, dat)
  in
  let nfan_off, nfan_len, nfan = csr (Netlist.fanins circuit) (fun _ -> true) in
  let nfo_off, nfo_len, nfo = csr (Netlist.fanouts circuit) comb in
  (* The combinational nodes ordered by level, node ids ascending within
     a level (a counting sort), so the full sweep and the event sweep
     agree on evaluation order (both are valid topological orders;
     values are order-independent, this is just cache-friendlier). *)
  let per_level = Array.make (max_level + 1) 0 in
  for node = 0 to n - 1 do
    if comb node then per_level.(levels.(node)) <- per_level.(levels.(node)) + 1
  done;
  let next = Array.make (max_level + 1) 0 in
  for l = 1 to max_level do
    next.(l) <- next.(l - 1) + per_level.(l - 1)
  done;
  let topo = Array.make (Array.length (Netlist.topo_order circuit)) 0 in
  for node = 0 to n - 1 do
    if comb node then begin
      let l = levels.(node) in
      topo.(next.(l)) <- node;
      next.(l) <- next.(l) + 1
    end
  done;
  (* The fault-free sweep, one entry per one-input gate or constant
     (a = b = its fanin, or the node itself) and [k - 1] entries per
     k-input gate: the first folds fanins 0 and 1 with the kind's AND,
     OR or XOR row into the node's own byte, the next ones fold that byte
     with one more fanin, and the last applies the kind's own row. *)
  let entries = ref 0 in
  for i = 0 to Array.length topo - 1 do
    entries := !entries + max 1 (nfan_len.(topo.(i)) - 1)
  done;
  let prog = Array.make (4 * !entries) 0 in
  let pos = ref 0 in
  let emit node a b row =
    prog.(!pos) <- node;
    prog.(!pos + 1) <- a;
    prog.(!pos + 2) <- b;
    prog.(!pos + 3) <- row;
    pos := !pos + 4
  in
  for i = 0 to Array.length topo - 1 do
    let node = topo.(i) in
    let k = nkind.(node) and off = nfan_off.(node) and len = nfan_len.(node) in
    if len <= 1 then begin
      let a = if len = 0 then node else nfan.(off) in
      emit node a a (16 * k)
    end
    else
      for j = 1 to len - 1 do
        emit node
          (if j = 1 then nfan.(off) else node)
          nfan.(off + j)
          (if j = len - 1 then 16 * k else 16 * (k land lnot 1))
      done
  done;
  let dffs = Netlist.dffs circuit in
  {
    circuit;
    n;
    nkind;
    nfan_off;
    nfan_len;
    nfan;
    nfo_off;
    nfo_len;
    nfo;
    level_of = levels;
    max_level;
    topo;
    prog;
    pis = Netlist.inputs circuit;
    pos = Netlist.outputs circuit;
    dff_nodes = Array.copy dffs;
    dff_d = Array.map (fun f -> (Netlist.fanins circuit f).(0)) dffs;
    ones = Array.make n 0;
    zeros = Array.make n 0;
    vstamp = Array.make n (-1);
    state_ones = Array.make (Array.length dffs) 0;
    state_zeros = Array.make (Array.length dffs) 0;
    ff_dirty = Array.make (Array.length dffs) false;
    buckets = Array.map (fun c -> Array.make (max 1 c) 0) per_level;
    bucket_len = Array.make (max_level + 1) 0;
    sstamp = Array.make n (-1);
    out_f1 = Array.make n 0;
    out_f0 = Array.make n 0;
    pin_f1 = Array.make n [||];
    pin_f0 = Array.make n [||];
    out_forced_nodes = [];
    out_forced_pis = [];
    out_forced_comb = [];
    out_forced_ffs = [];
    ff_forced = Array.make (Array.length dffs) false;
    pin_forced_comb = [];
    pin_forced_dffs = [];
    step_id = 0;
    trd = Bytes.empty;
    tr_base = 0;
    diff_lanes = 0;
    acc_o = 0;
    acc_z = 0;
    rd_o = 0;
    rd_z = 0;
    full_mode = false;
    activity = 0.0;
    evals = 0;
    n_full_steps = 0;
    n_event_steps = 0;
  }

let circuit t = t.circuit
let evaluations t = t.evals
let full_steps t = t.n_full_steps
let event_steps t = t.n_event_steps
let po_diff_lanes t = t.diff_lanes

(* --- the fault-free trace ------------------------------------------- *)

type snapshot = { snap_ones : int array; snap_zeros : int array }

type trace = {
  tr_circuit : Netlist.t;
  mutable seq : Tseq.t;
  tr_n : int;
  mutable data : Bytes.t; (* [upto * tr_n] materialized bytes *)
  mutable upto : int;
  g_state : int array; (* per-flip-flop present-state code *)
  g_prog : int array;
  g_pis : int array;
  g_dffs : int array;
  g_dff_d : int array;
}

let trace t seq = {
  tr_circuit = t.circuit;
  seq;
  tr_n = t.n;
  data = Bytes.make (t.n * min (max 1 (Tseq.length seq)) 64) '\000';
  upto = 0;
  g_state = Array.make (Array.length t.dff_nodes) 0;
  g_prog = t.prog;
  g_pis = t.pis;
  g_dffs = t.dff_nodes;
  g_dff_d = t.dff_d;
}

let trace_length tr = tr.upto

let retrace ?from tr seq =
  tr.seq <- seq;
  tr.upto <- 0;
  match from with
  | None -> Array.fill tr.g_state 0 (Array.length tr.g_state) 0
  | Some s ->
    if Array.length s.snap_ones <> Array.length tr.g_state then
      invalid_arg "Ppsfp.retrace: snapshot of a different circuit";
    (* Lane 0 of the snapshot, as trace codes. *)
    Array.iteri
      (fun i o -> tr.g_state.(i) <- (o land 1) lor ((s.snap_zeros.(i) land 1) lsl 1))
      s.snap_ones

let good_value tr u node =
  if u < 0 || u >= tr.upto || node < 0 || node >= tr.tr_n then
    invalid_arg "Ppsfp.good_value: step not simulated or node out of range";
  ternary_of_code (Char.code (Bytes.get tr.data ((u * tr.tr_n) + node)))

(* One step of the fault-free machine: PI and present-state codes in,
   then the compiled program, then the next state out. *)
let trace_step tr =
  let u = tr.upto in
  let n = tr.tr_n in
  if Bytes.length tr.data < (u + 1) * n then begin
    let grown =
      Bytes.make (max ((u + 1) * n) (min (2 * Bytes.length tr.data) (Tseq.length tr.seq * n))) '\000'
    in
    Bytes.blit tr.data 0 grown 0 (u * n);
    tr.data <- grown
  end;
  let base = u * n in
  let data = tr.data in
  let vec = Tseq.get tr.seq u in
  let pis = tr.g_pis in
  for i = 0 to Array.length pis - 1 do
    Bytes.unsafe_set data
      (base + Array.unsafe_get pis i)
      (Char.unsafe_chr (code_of_ternary (Bist_logic.Vector.get vec i)))
  done;
  let dffs = tr.g_dffs and state = tr.g_state in
  for i = 0 to Array.length dffs - 1 do
    Bytes.unsafe_set data
      (base + Array.unsafe_get dffs i)
      (Char.unsafe_chr (Array.unsafe_get state i))
  done;
  let prog = tr.g_prog and table = table in
  for e = 0 to (Array.length prog / 4) - 1 do
    let j = 4 * e in
    let a = Char.code (Bytes.unsafe_get data (base + Array.unsafe_get prog (j + 1))) in
    let b = Char.code (Bytes.unsafe_get data (base + Array.unsafe_get prog (j + 2))) in
    Bytes.unsafe_set data
      (base + Array.unsafe_get prog j)
      (String.unsafe_get table (Array.unsafe_get prog (j + 3) + (4 * a) + b))
  done;
  let dff_d = tr.g_dff_d in
  for i = 0 to Array.length dff_d - 1 do
    Array.unsafe_set state i
      (Char.code (Bytes.unsafe_get data (base + Array.unsafe_get dff_d i)))
  done;
  tr.upto <- u + 1

let trace_ensure tr u =
  if u >= Tseq.length tr.seq then
    invalid_arg "Ppsfp.step: time step beyond the sequence";
  while tr.upto <= u do
    trace_step tr
  done

(* --- forces ---------------------------------------------------------- *)

let check_mask mask =
  if mask land 1 <> 0 then
    invalid_arg "Ppsfp: lane 0 is reserved for the fault-free machine"

let ff_index t node =
  let rec go i =
    if i >= Array.length t.dff_nodes then invalid_arg "Ppsfp: not a flip-flop"
    else if t.dff_nodes.(i) = node then i
    else go (i + 1)
  in
  go 0

let add_output_force t node ~mask stuck =
  check_mask mask;
  if t.out_f1.(node) lor t.out_f0.(node) = 0 then begin
    t.out_forced_nodes <- node :: t.out_forced_nodes;
    match t.nkind.(node) with
    | -1 -> t.out_forced_pis <- node :: t.out_forced_pis
    | -2 ->
      let i = ff_index t node in
      t.ff_forced.(i) <- true;
      t.out_forced_ffs <- i :: t.out_forced_ffs
    | _ -> t.out_forced_comb <- node :: t.out_forced_comb
  end;
  match stuck with
  | T.One -> t.out_f1.(node) <- t.out_f1.(node) lor mask
  | T.Zero -> t.out_f0.(node) <- t.out_f0.(node) lor mask
  | T.X -> invalid_arg "Ppsfp.add_output_force: X"

let add_pin_force t ~gate ~pin ~mask stuck =
  check_mask mask;
  let arity = t.nfan_len.(gate) in
  if pin < 0 || pin >= arity then invalid_arg "Ppsfp.add_pin_force: pin out of range";
  if Array.length t.pin_f1.(gate) = 0 then begin
    t.pin_f1.(gate) <- Array.make arity 0;
    t.pin_f0.(gate) <- Array.make arity 0;
    if t.nkind.(gate) = -2 then t.pin_forced_dffs <- gate :: t.pin_forced_dffs
    else t.pin_forced_comb <- gate :: t.pin_forced_comb
  end;
  match stuck with
  | T.One -> t.pin_f1.(gate).(pin) <- t.pin_f1.(gate).(pin) lor mask
  | T.Zero -> t.pin_f0.(gate).(pin) <- t.pin_f0.(gate).(pin) lor mask
  | T.X -> invalid_arg "Ppsfp.add_pin_force: X"

let clear_forces t =
  List.iter
    (fun node ->
      t.out_f1.(node) <- 0;
      t.out_f0.(node) <- 0)
    t.out_forced_nodes;
  List.iter (fun i -> t.ff_forced.(i) <- false) t.out_forced_ffs;
  let clear_pins g =
    t.pin_f1.(g) <- [||];
    t.pin_f0.(g) <- [||]
  in
  List.iter clear_pins t.pin_forced_comb;
  List.iter clear_pins t.pin_forced_dffs;
  t.out_forced_nodes <- [];
  t.out_forced_pis <- [];
  t.out_forced_comb <- [];
  t.out_forced_ffs <- [];
  t.pin_forced_comb <- [];
  t.pin_forced_dffs <- []

let rearm t =
  t.diff_lanes <- 0;
  t.full_mode <- false;
  t.activity <- 0.0

let reset t =
  Array.fill t.state_ones 0 (Array.length t.state_ones) 0;
  Array.fill t.state_zeros 0 (Array.length t.state_zeros) 0;
  Array.fill t.ff_dirty 0 (Array.length t.ff_dirty) false;
  rearm t

let save_state t =
  { snap_ones = Array.copy t.state_ones; snap_zeros = Array.copy t.state_zeros }

let restore_state t s =
  if Array.length s.snap_ones <> Array.length t.state_ones then
    invalid_arg "Ppsfp.restore_state: snapshot of a different circuit";
  Array.blit s.snap_ones 0 t.state_ones 0 (Array.length s.snap_ones);
  Array.blit s.snap_zeros 0 t.state_zeros 0 (Array.length s.snap_zeros);
  Array.iteri
    (fun i o ->
      let z = s.snap_zeros.(i) in
      t.ff_dirty.(i) <- o <> -(o land 1) || z <> -(z land 1))
    s.snap_ones;
  rearm t

let state_diff_count t ~lane =
  if lane < 1 || lane >= 63 then invalid_arg "Ppsfp.state_diff_count: lane";
  let m = 1 lsl lane in
  let count = ref 0 in
  for i = 0 to Array.length t.state_ones - 1 do
    let o = t.state_ones.(i) and z = t.state_zeros.(i) in
    if (o land 1 <> 0 && z land m <> 0) || (z land 1 <> 0 && o land m <> 0) then
      incr count
  done;
  !count

let drop_lanes t mask =
  let mask = mask land lnot 1 in
  if mask <> 0 then begin
    let keep = lnot mask in
    List.iter
      (fun node ->
        t.out_f1.(node) <- t.out_f1.(node) land keep;
        t.out_f0.(node) <- t.out_f0.(node) land keep)
      t.out_forced_nodes;
    let drop_pins g =
      let f1 = t.pin_f1.(g) and f0 = t.pin_f0.(g) in
      for j = 0 to Array.length f1 - 1 do
        f1.(j) <- f1.(j) land keep;
        f0.(j) <- f0.(j) land keep
      done
    in
    List.iter drop_pins t.pin_forced_comb;
    List.iter drop_pins t.pin_forced_dffs;
    (* Snap the dropped lanes' flip-flop state back to the fault-free
       machine (lane 0): the lanes become quiescent copies and stop
       generating events. *)
    for i = 0 to Array.length t.state_ones - 1 do
      let so = t.state_ones.(i) and sz = t.state_zeros.(i) in
      let so = (so land keep) lor (-(so land 1) land mask) in
      let sz = (sz land keep) lor (-(sz land 1) land mask) in
      t.state_ones.(i) <- so;
      t.state_zeros.(i) <- sz;
      t.ff_dirty.(i) <- so <> -(so land 1) || sz <> -(sz land 1)
    done
  end

(* --- the packed step ------------------------------------------------- *)

(* Fanin read: a node stamped this step has explicit planes; any other
   node is the broadcast of its fault-free trace byte. *)
let read t d =
  if Array.unsafe_get t.vstamp d = t.step_id then begin
    t.rd_o <- Array.unsafe_get t.ones d;
    t.rd_z <- Array.unsafe_get t.zeros d
  end
  else begin
    let c = Char.code (Bytes.unsafe_get t.trd (t.tr_base + d)) in
    t.rd_o <- -(c land 1);
    t.rd_z <- -((c lsr 1) land 1)
  end

let full = -1

let acc_plain t kind off len =
  match kind with
  | 2 | 3 ->
    let o = ref full and z = ref 0 in
    for i = off to off + len - 1 do
      read t (Array.unsafe_get t.nfan i);
      o := !o land t.rd_o;
      z := !z lor t.rd_z
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 4 | 5 ->
    let o = ref 0 and z = ref full in
    for i = off to off + len - 1 do
      read t (Array.unsafe_get t.nfan i);
      o := !o lor t.rd_o;
      z := !z land t.rd_z
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 6 | 7 ->
    let o = ref 0 and z = ref full in
    for i = off to off + len - 1 do
      read t (Array.unsafe_get t.nfan i);
      let io = t.rd_o and iz = t.rd_z in
      let no = (!o land iz) lor (!z land io) in
      z := (!o land io) lor (!z land iz);
      o := no
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 0 | 1 ->
    read t (Array.unsafe_get t.nfan off);
    t.acc_o <- t.rd_o;
    t.acc_z <- t.rd_z
  | 8 ->
    t.acc_o <- 0;
    t.acc_z <- full
  | _ ->
    t.acc_o <- full;
    t.acc_z <- 0

let acc_forced t kind off len pf1 pf0 =
  let pin j =
    read t (Array.unsafe_get t.nfan (off + j));
    let f1 = Array.unsafe_get pf1 j and f0 = Array.unsafe_get pf0 j in
    let keep = lnot (f1 lor f0) in
    t.rd_o <- (t.rd_o land keep) lor f1;
    t.rd_z <- (t.rd_z land keep) lor f0
  in
  match kind with
  | 2 | 3 ->
    let o = ref full and z = ref 0 in
    for j = 0 to len - 1 do
      pin j;
      o := !o land t.rd_o;
      z := !z lor t.rd_z
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 4 | 5 ->
    let o = ref 0 and z = ref full in
    for j = 0 to len - 1 do
      pin j;
      o := !o lor t.rd_o;
      z := !z land t.rd_z
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 6 | 7 ->
    let o = ref 0 and z = ref full in
    for j = 0 to len - 1 do
      pin j;
      let io = t.rd_o and iz = t.rd_z in
      let no = (!o land iz) lor (!z land io) in
      z := (!o land io) lor (!z land iz);
      o := no
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 0 | 1 ->
    pin 0;
    t.acc_o <- t.rd_o;
    t.acc_z <- t.rd_z
  | 8 ->
    t.acc_o <- 0;
    t.acc_z <- full
  | _ ->
    t.acc_o <- full;
    t.acc_z <- 0

(* Evaluate one combinational node; returns true iff its packed word
   differs from the fault-free broadcast (some lane deviates). *)
let eval_node t node =
  let kind = Array.unsafe_get t.nkind node in
  let off = Array.unsafe_get t.nfan_off node in
  let len = Array.unsafe_get t.nfan_len node in
  let pf1 = Array.unsafe_get t.pin_f1 node in
  if Array.length pf1 = 0 then acc_plain t kind off len
  else acc_forced t kind off len pf1 (Array.unsafe_get t.pin_f0 node);
  let o, z =
    if kind land 1 = 1 && kind < 8 then (t.acc_z, t.acc_o) else (t.acc_o, t.acc_z)
  in
  let f1 = Array.unsafe_get t.out_f1 node and f0 = Array.unsafe_get t.out_f0 node in
  let o, z =
    if f1 lor f0 <> 0 then begin
      let keep = lnot (f1 lor f0) in
      ((o land keep) lor f1, (z land keep) lor f0)
    end
    else (o, z)
  in
  Array.unsafe_set t.ones node o;
  Array.unsafe_set t.zeros node z;
  Array.unsafe_set t.vstamp node t.step_id;
  t.evals <- t.evals + 1;
  o <> -(o land 1) || z <> -(z land 1)

let schedule t node =
  if Array.unsafe_get t.sstamp node <> t.step_id then begin
    Array.unsafe_set t.sstamp node t.step_id;
    let lv = Array.unsafe_get t.level_of node in
    let b = Array.unsafe_get t.buckets lv in
    let len = Array.unsafe_get t.bucket_len lv in
    Array.unsafe_set b len node;
    Array.unsafe_set t.bucket_len lv (len + 1)
  end

let propagate t node =
  let off = Array.unsafe_get t.nfo_off node in
  let len = Array.unsafe_get t.nfo_len node in
  for i = off to off + len - 1 do
    schedule t (Array.unsafe_get t.nfo i)
  done

(* Materialize a source node's planes from [o]/[z], apply its output
   force, and propagate if it deviates from the fault-free machine. *)
let seed_source t node o z =
  let f1 = t.out_f1.(node) and f0 = t.out_f0.(node) in
  let o, z =
    if f1 lor f0 <> 0 then begin
      let keep = lnot (f1 lor f0) in
      ((o land keep) lor f1, (z land keep) lor f0)
    end
    else (o, z)
  in
  t.ones.(node) <- o;
  t.zeros.(node) <- z;
  t.vstamp.(node) <- t.step_id;
  if o <> -(o land 1) || z <> -(z land 1) then propagate t node

let detect t =
  let diff = ref 0 in
  let pos = t.pos in
  for i = 0 to Array.length pos - 1 do
    let p = Array.unsafe_get pos i in
    if Array.unsafe_get t.vstamp p = t.step_id then begin
      let o = Array.unsafe_get t.ones p and z = Array.unsafe_get t.zeros p in
      if o land 1 <> 0 then diff := !diff lor z
      else if z land 1 <> 0 then diff := !diff lor o
    end
  done;
  t.diff_lanes <- !diff land lnot 1

let clock t =
  let dffs = t.dff_nodes in
  for i = 0 to Array.length dffs - 1 do
    let fnode = Array.unsafe_get dffs i in
    read t (Array.unsafe_get t.dff_d i);
    let o = ref t.rd_o and z = ref t.rd_z in
    if Array.length t.pin_f1.(fnode) <> 0 then begin
      let f1 = t.pin_f1.(fnode).(0) and f0 = t.pin_f0.(fnode).(0) in
      let keep = lnot (f1 lor f0) in
      o := (!o land keep) lor f1;
      z := (!z land keep) lor f0
    end;
    t.state_ones.(i) <- !o;
    t.state_zeros.(i) <- !z;
    t.ff_dirty.(i) <- !o <> -(!o land 1) || !z <> -(!z land 1)
  done

let rec seed_pis t = function
  | [] -> ()
  | p :: rest ->
    let c = Char.code (Bytes.unsafe_get t.trd (t.tr_base + p)) in
    seed_source t p (-(c land 1)) (-((c lsr 1) land 1));
    seed_pis t rest

let rec schedule_all t = function
  | [] -> ()
  | g :: rest ->
    schedule t g;
    schedule_all t rest

let step_event t =
  seed_pis t t.out_forced_pis;
  for i = 0 to Array.length t.dff_nodes - 1 do
    if t.ff_dirty.(i) || t.ff_forced.(i) then
      seed_source t t.dff_nodes.(i) t.state_ones.(i) t.state_zeros.(i)
  done;
  schedule_all t t.out_forced_comb;
  schedule_all t t.pin_forced_comb;
  for lv = 0 to t.max_level do
    let len = Array.unsafe_get t.bucket_len lv in
    if len > 0 then begin
      Array.unsafe_set t.bucket_len lv 0;
      let b = Array.unsafe_get t.buckets lv in
      for i = 0 to len - 1 do
        let node = Array.unsafe_get b i in
        if eval_node t node then propagate t node
      done
    end
  done

let step_full t =
  let data = t.trd and base = t.tr_base in
  Array.iter
    (fun p ->
      let c = Char.code (Bytes.unsafe_get data (base + p)) in
      let o = -(c land 1) and z = -((c lsr 1) land 1) in
      let f1 = t.out_f1.(p) and f0 = t.out_f0.(p) in
      let o, z =
        if f1 lor f0 <> 0 then begin
          let keep = lnot (f1 lor f0) in
          ((o land keep) lor f1, (z land keep) lor f0)
        end
        else (o, z)
      in
      t.ones.(p) <- o;
      t.zeros.(p) <- z;
      t.vstamp.(p) <- t.step_id)
    t.pis;
  Array.iteri
    (fun i node ->
      let o = t.state_ones.(i) and z = t.state_zeros.(i) in
      let f1 = t.out_f1.(node) and f0 = t.out_f0.(node) in
      let o, z =
        if f1 lor f0 <> 0 then begin
          let keep = lnot (f1 lor f0) in
          ((o land keep) lor f1, (z land keep) lor f0)
        end
        else (o, z)
      in
      t.ones.(node) <- o;
      t.zeros.(node) <- z;
      t.vstamp.(node) <- t.step_id)
    t.dff_nodes;
  let dirty = ref 0 in
  let topo = t.topo in
  for i = 0 to Array.length topo - 1 do
    if eval_node t (Array.unsafe_get topo i) then incr dirty
  done;
  !dirty

(* Hybrid control: EWMA of per-step activity, with hysteresis so the
   mode doesn't flap. Mode changes never change values — both modes
   compute identical planes — only which gates get visited. *)
let to_full = 0.55
let to_event = 0.25

let step t tr u =
  if not (tr.tr_circuit == t.circuit) then
    invalid_arg "Ppsfp.step: trace belongs to a different circuit";
  trace_ensure tr u;
  t.trd <- tr.data;
  t.tr_base <- u * t.n;
  t.step_id <- t.step_id + 1;
  let gates = max 1 (Array.length t.topo) in
  let act =
    if t.full_mode then begin
      t.n_full_steps <- t.n_full_steps + 1;
      let dirty = step_full t in
      float_of_int dirty /. float_of_int gates
    end
    else begin
      t.n_event_steps <- t.n_event_steps + 1;
      let before = t.evals in
      step_event t;
      float_of_int (t.evals - before) /. float_of_int gates
    end
  in
  t.activity <- (0.7 *. t.activity) +. (0.3 *. act);
  if t.full_mode then begin
    if t.activity < to_event then t.full_mode <- false
  end
  else if t.activity > to_full then t.full_mode <- true;
  detect t;
  clock t
