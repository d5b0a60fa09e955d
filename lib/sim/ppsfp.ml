module T = Bist_logic.Ternary
module Tseq = Bist_logic.Tseq
module Netlist = Bist_circuit.Netlist
module Gate = Bist_circuit.Gate

(* The kernel works on a two-plane packed encoding: ones/zeros ints, one
   lane per bit, lane 0 = fault-free machine. What it saves is
   evaluation. The fault-free machine is simulated once per sequence into
   a byte-per-node-per-step trace; a group pass then evaluates a gate
   only when one of its fanins' packed words actually differs from the
   fault-free broadcast, or when one of its forces disagrees with the
   fault-free value it overrides. A node without a current-step value
   stamp implicitly holds the broadcast of its trace byte, and so does a
   clean flip-flop: only the flip-flops whose state deviates (the dirty
   list) keep packed state.

   "Differs from fault-free" is checked against lane 0 of the word
   itself: lane 0 is never forced, so a word is clean iff every lane
   equals lane 0, i.e. [ones = -(ones land 1) && zeros = -(zeros land 1)].

   Trace bytes encode a ternary value in two bits: bit 0 = one-plane,
   bit 1 = zero-plane (1 = One, 2 = Zero, 0 = X). Broadcasting a byte to
   a packed plane is [-(code land 1)] / [-((code lsr 1) land 1)].

   Nodes are renumbered inside the kernel: primary inputs first (in
   input order), then flip-flops (in flip-flop order), then the
   combinational nodes by level. Every public call takes and returns
   netlist ids; the trace, the node record and the program use the
   internal ones.

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
  | Gate.Input -> 10
  | Gate.Dff -> 11

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

(* The node record: [stride] ints per internal node, interleaved so one
   evaluation reads and writes one 64-byte record of its own.
   - [f_stamp]: the step whose planes [f_ones]/[f_zeros] hold;
   - [f_sched]: the step the node was last scheduled in;
   - [f_info]: kind code, force flags, and (from bit 8) the number of
     flip-flops among the node's consumers;
   - [f_fan], [f_fo]: first edge [lsl span_shift] plus count, into
     [fan] (fanins, in netlist pin order) and [fo] (consumers,
     combinational first, flip-flops last);
   - [f_level]: the scheduling bucket, the level for a combinational
     node and [max_level + 1] (the clock) for a flip-flop. *)
let stride = 8
let f_stamp = 0
let f_ones = 1
let f_zeros = 2
let f_sched = 3
let f_info = 4
let f_fan = 5
let f_fo = 6
let f_level = 7
let out_forced = 16
let pin_forced = 32
let ff_shift = 8
let span_shift = 24
let span_mask = (1 lsl span_shift) - 1

type t = {
  circuit : Netlist.t;
  n : int;
  of_netlist : int array; (* netlist id -> internal id *)
  n_pis : int; (* internal ids [0, n_pis) *)
  comb_base : int; (* flip-flops are [n_pis, comb_base), gates after *)
  node : int array; (* the record, [stride] ints per node *)
  fan : int array;
  fo : int array;
  max_level : int;
  prog : int array; (* the fault-free sweep, 4 ints per entry *)
  pos : int array;
  dff_d : int array; (* D driver per flip-flop *)
  (* flip-flop state: valid for the dirty flip-flops; a clean one is the
     broadcast of its D driver's trace byte at the last step, or, before
     the first step after [reset]/[restore_state], these arrays *)
  state_ones : int array;
  state_zeros : int array;
  dirty : int array; (* flip-flop indices whose state deviates *)
  mutable n_dirty : int;
  mutable stepped : bool; (* a step ran since [reset]/[restore_state] *)
  (* level buckets of scheduled nodes, slices of one array *)
  bucket : int array;
  bucket_start : int array;
  bucket_len : int array;
  (* forces: output masks per node, pin masks per fanin edge *)
  out_f1 : int array;
  out_f0 : int array;
  pin_f1 : int array;
  pin_f0 : int array;
  mutable forced : int array; (* nodes with any force *)
  mutable n_forced : int;
  (* the per-step work of the forces, rebuilt at the first step after
     they change: the output-forced inputs and flip-flops to seed, and
     one [(site, node, codes)] triple per other force, flip-flops first,
     that schedules [node] when the trace code of [site] is in the bit
     set [codes]; all of them only for forces with live lanes *)
  mutable seeds : int array;
  mutable n_seeds : int;
  mutable act : int array;
  mutable n_act : int;
  mutable n_act_ffs : int;
  mutable stale : bool;
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
  activity : float array;
      (* EWMA of evaluated-gate fraction, in one float-array cell so that
         an update allocates nothing *)
  mutable evals : int;
  mutable n_full_steps : int;
  mutable n_event_steps : int;
  (* the state at the last [mark]: lane 0's code per flip-flop, and the
     planes of the flip-flops dirty then, stamped [mark_id] *)
  mutable marked : bool;
  mutable mark_id : int;
  mutable mark_dirty : int;
  mark_good : Bytes.t;
  mark_stamp : int array;
  mark_ones : int array;
  mark_zeros : int array;
}

let create circuit =
  let n = Netlist.size circuit in
  let pis = Netlist.inputs circuit and dffs = Netlist.dffs circuit in
  let topo = Netlist.topo_order circuit in
  let n_pis = Array.length pis and n_ffs = Array.length dffs in
  let comb_base = n_pis + n_ffs in
  let level = Bist_circuit.Stats.levels circuit in
  let max_level = Array.fold_left (fun m l -> if l > m then l else m) 0 level in
  (* Internal ids: inputs, flip-flops, then a counting sort of the gates
     by level, netlist ids ascending within a level, so [first.(l)] is the
     first gate of level [l]. [to_netlist] is the inverse. *)
  let first = Array.make (max_level + 2) 0 in
  for i = 0 to Array.length topo - 1 do
    let l = level.(topo.(i)) in
    first.(l + 1) <- first.(l + 1) + 1
  done;
  first.(1) <- comb_base;
  for l = 2 to max_level + 1 do
    first.(l) <- first.(l) + first.(l - 1)
  done;
  let of_netlist = Array.make n 0 and to_netlist = Array.make n 0 in
  Array.iteri (fun i p -> of_netlist.(p) <- i) pis;
  Array.iteri (fun i f -> of_netlist.(f) <- n_pis + i) dffs;
  let next = Array.sub first 0 (max_level + 1) in
  for g = 0 to n - 1 do
    if level.(g) > 0 then begin
      let l = level.(g) in
      of_netlist.(g) <- next.(l);
      next.(l) <- next.(l) + 1
    end
  done;
  for g = 0 to n - 1 do
    to_netlist.(of_netlist.(g)) <- g
  done;
  (* Edge counts, then the record and both edge arrays in one pass. *)
  let n_fan = ref 0 and n_fo = ref 0 in
  for g = 0 to n - 1 do
    n_fan := !n_fan + Array.length (Netlist.fanins circuit g);
    n_fo := !n_fo + Array.length (Netlist.fanouts circuit g)
  done;
  if n > span_mask then invalid_arg "Ppsfp.create: circuit too large";
  let node = Array.make (n * stride) 0 in
  let fan = Array.make (max 1 !n_fan) 0 and fo = Array.make (max 1 !n_fo) 0 in
  let e_fan = ref 0 and e_fo = ref 0 in
  for v = 0 to n - 1 do
    let g = to_netlist.(v) and b = v * stride in
    let fi = Netlist.fanins circuit g and fos = Netlist.fanouts circuit g in
    for j = 0 to Array.length fi - 1 do
      fan.(!e_fan + j) <- of_netlist.(fi.(j))
    done;
    (* consumers: gates from the front, flip-flops from the back *)
    let lo = ref !e_fo and hi = ref (!e_fo + Array.length fos) in
    for j = 0 to Array.length fos - 1 do
      let c = of_netlist.(fos.(j)) in
      if c >= comb_base then begin
        fo.(!lo) <- c;
        incr lo
      end
      else begin
        decr hi;
        fo.(!hi) <- c
      end
    done;
    node.(b + f_info) <-
      kind_code (Netlist.kind circuit g) lor ((!e_fo + Array.length fos - !hi) lsl ff_shift);
    node.(b + f_fan) <- (!e_fan lsl span_shift) lor Array.length fi;
    node.(b + f_fo) <- (!e_fo lsl span_shift) lor Array.length fos;
    node.(b + f_level) <- (if v >= comb_base then level.(g) else max_level + 1);
    e_fan := !e_fan + Array.length fi;
    e_fo := !e_fo + Array.length fos
  done;
  (* The fault-free sweep, one entry per one-input gate or constant
     (a = b = its fanin, or the node itself) and [k - 1] entries per
     k-input gate: the first folds fanins 0 and 1 with the kind's AND,
     OR or XOR row into the node's own byte, the next ones fold that byte
     with one more fanin, and the last applies the kind's own row. *)
  let entries = ref 0 in
  for v = comb_base to n - 1 do
    entries := !entries + max 1 ((node.((v * stride) + f_fan) land span_mask) - 1)
  done;
  let prog = Array.make (4 * !entries) 0 in
  let pos = ref 0 in
  let emit v a b row =
    prog.(!pos) <- v;
    prog.(!pos + 1) <- a;
    prog.(!pos + 2) <- b;
    prog.(!pos + 3) <- row;
    pos := !pos + 4
  in
  for v = comb_base to n - 1 do
    let b = v * stride in
    let k = node.(b + f_info) land 15 and span = node.(b + f_fan) in
    let off = span lsr span_shift and len = span land span_mask in
    if len <= 1 then begin
      let a = if len = 0 then v else fan.(off) in
      emit v a a (16 * k)
    end
    else
      for j = 1 to len - 1 do
        emit v
          (if j = 1 then fan.(off) else v)
          fan.(off + j)
          (if j = len - 1 then 16 * k else 16 * (k land lnot 1))
      done
  done;
  (* Bucket slices of one array: a level's gates are a contiguous id
     range, and the clock bucket is the flip-flops' own range. *)
  first.(max_level + 1) <- n_pis;
  {
    circuit;
    n;
    of_netlist;
    n_pis;
    comb_base;
    node;
    fan;
    fo;
    max_level;
    prog;
    pos = Array.map (fun p -> of_netlist.(p)) (Netlist.outputs circuit);
    dff_d = Array.map (fun f -> of_netlist.((Netlist.fanins circuit f).(0))) dffs;
    state_ones = Array.make n_ffs 0;
    state_zeros = Array.make n_ffs 0;
    dirty = Array.make n_ffs 0;
    n_dirty = 0;
    stepped = false;
    bucket = Array.make n 0;
    bucket_start = first;
    bucket_len = Array.make (max_level + 2) 0;
    out_f1 = Array.make n 0;
    out_f0 = Array.make n 0;
    pin_f1 = Array.make (Array.length fan) 0;
    pin_f0 = Array.make (Array.length fan) 0;
    forced = [||];
    n_forced = 0;
    seeds = [||];
    n_seeds = 0;
    act = [||];
    n_act = 0;
    n_act_ffs = 0;
    stale = false;
    step_id = 0;
    trd = Bytes.empty;
    tr_base = 0;
    diff_lanes = 0;
    acc_o = 0;
    acc_z = 0;
    rd_o = 0;
    rd_z = 0;
    full_mode = false;
    activity = [| 0.0 |];
    evals = 0;
    n_full_steps = 0;
    n_event_steps = 0;
    marked = false;
    mark_id = 0;
    mark_dirty = 0;
    mark_good = Bytes.make n_ffs '\000';
    mark_stamp = Array.make n_ffs 0;
    mark_ones = Array.make n_ffs 0;
    mark_zeros = Array.make n_ffs 0;
  }

let circuit t = t.circuit
let evaluations t = t.evals
let full_steps t = t.n_full_steps
let event_steps t = t.n_event_steps
let po_diff_lanes t = t.diff_lanes

(* --- the fault-free trace ------------------------------------------- *)

type snapshot = { snap_ones : int array; snap_zeros : int array }

(* With a block length [l], block [k] is steps [k * l, (k + 1) * l); only
   whole blocks count. [reps] caches, per block [k >= 1], whether its
   input vectors equal those of block [k - 1]: 0 not compared yet, 1 no,
   2 yes. *)
type trace = {
  tr_circuit : Netlist.t;
  mutable seq : Tseq.t;
  tr_n : int;
  mutable data : Bytes.t; (* [upto * tr_n] materialized bytes, internal ids *)
  mutable upto : int;
  mutable block : int; (* 0: none *)
  mutable reps : Bytes.t;
  mutable copies : int;
  g_state : int array; (* per-flip-flop present-state code *)
  g_prog : int array;
  g_n_pis : int;
  g_dff_d : int array;
  g_of_netlist : int array;
}

let set_block tr block =
  let l = Option.value block ~default:0 in
  if block <> None && l < 1 then invalid_arg "Ppsfp.trace: block length must be >= 1";
  tr.block <- l;
  if l > 0 then begin
    let blocks = Tseq.length tr.seq / l in
    if Bytes.length tr.reps < blocks then tr.reps <- Bytes.create blocks;
    Bytes.fill tr.reps 0 blocks '\000'
  end

let trace ?block t seq =
  let tr =
    {
      tr_circuit = t.circuit;
      seq;
      tr_n = t.n;
      data = Bytes.make (t.n * min (max 1 (Tseq.length seq)) 64) '\000';
      upto = 0;
      block = 0;
      reps = Bytes.empty;
      copies = 0;
      g_state = Array.make (Array.length t.dff_d) 0;
      g_prog = t.prog;
      g_n_pis = t.n_pis;
      g_dff_d = t.dff_d;
      g_of_netlist = t.of_netlist;
    }
  in
  set_block tr block;
  tr

let trace_length tr = tr.upto
let trace_copies tr = tr.copies

let retrace ?from ?block tr seq =
  tr.seq <- seq;
  tr.upto <- 0;
  tr.copies <- 0;
  set_block tr block;
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
  ternary_of_code
    (Char.code (Bytes.get tr.data ((u * tr.tr_n) + tr.g_of_netlist.(node))))

(* Room for [rows] rows, doubling up to the sequence's length. *)
let grow tr rows =
  let n = tr.tr_n in
  if Bytes.length tr.data < rows * n then begin
    let grown =
      Bytes.make (max (rows * n) (min (2 * Bytes.length tr.data) (Tseq.length tr.seq * n))) '\000'
    in
    Bytes.blit tr.data 0 grown 0 (tr.upto * n);
    tr.data <- grown
  end

(* Whether the input vectors of block [k >= 1] equal those of block
   [k - 1]; compared once per trace start. *)
let inputs_repeat tr k =
  match Bytes.unsafe_get tr.reps k with
  | '\001' -> false
  | '\002' -> true
  | _ ->
    let l = tr.block and seq = tr.seq in
    let rec same u =
      u >= (k + 1) * l
      ||
      let a = Tseq.get seq u and b = Tseq.get seq (u - l) in
      (a == b || Bist_logic.Vector.equal a b) && same (u + 1)
    in
    let r = same (k * l) in
    Bytes.unsafe_set tr.reps k (if r then '\002' else '\001');
    r

(* Steps from [u] on, whole blocks of them, whose inputs repeat the block
   before: none unless [u] is a positive multiple of the block length. *)
let repeats tr u =
  let l = tr.block in
  if l = 0 || u <= 0 || u mod l <> 0 then 0
  else begin
    let whole = Tseq.length tr.seq / l in
    let k = ref (u / l) in
    while !k < whole && inputs_repeat tr !k do
      incr k
    done;
    (!k * l) - u
  end

(* The fault-free machine's present state equals its state at step [r],
   the flip-flop bytes of row [r]. *)
let state_is_row tr r =
  let base = (r * tr.tr_n) + tr.g_n_pis and state = tr.g_state in
  let rec go i =
    i >= Array.length state
    || (Char.code (Bytes.unsafe_get tr.data (base + i)) = Array.unsafe_get state i
       && go (i + 1))
  in
  go 0

(* One step of the fault-free machine: PI and present-state codes in,
   then the compiled program, then the next state out. *)
let sweep tr =
  let u = tr.upto in
  let n = tr.tr_n in
  grow tr (u + 1);
  let base = u * n in
  let data = tr.data in
  let vec = Tseq.get tr.seq u in
  for i = 0 to tr.g_n_pis - 1 do
    Bytes.unsafe_set data (base + i)
      (Char.unsafe_chr (code_of_ternary (Bist_logic.Vector.get vec i)))
  done;
  let ff_base = base + tr.g_n_pis and state = tr.g_state in
  for i = 0 to Array.length state - 1 do
    Bytes.unsafe_set data (ff_base + i) (Char.unsafe_chr (Array.unsafe_get state i))
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

(* The next row, or the next block of rows: a block whose inputs repeat
   the block before, entered in the state that block was entered in,
   repeats its rows, so they are copied, and the state stays where it
   is. *)
let trace_step tr =
  let u = tr.upto and n = tr.tr_n and l = tr.block in
  if l > 0 && u > 0 && u mod l = 0 && u + l <= Tseq.length tr.seq
     && inputs_repeat tr (u / l) && state_is_row tr (u - l)
  then begin
    grow tr (u + l);
    Bytes.blit tr.data ((u - l) * n) tr.data (u * n) (l * n);
    tr.upto <- u + l;
    tr.copies <- tr.copies + l
  end
  else sweep tr

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

(* [a], or a copy twice as long, with room for index [i]. *)
let room a i =
  if i < Array.length a then a
  else begin
    let b = Array.make ((2 * i) + 8) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Set force flag [flag] of [v] (internal id); its first force lists it. *)
let flag_forced t v flag =
  let i = (v * stride) + f_info in
  let info = t.node.(i) in
  if info land (out_forced lor pin_forced) = 0 then begin
    t.forced <- room t.forced t.n_forced;
    t.forced.(t.n_forced) <- v;
    t.n_forced <- t.n_forced + 1
  end;
  t.node.(i) <- info lor flag;
  t.stale <- true

let add_output_force t node ~mask stuck =
  check_mask mask;
  let v = t.of_netlist.(node) in
  flag_forced t v out_forced;
  match stuck with
  | T.One -> t.out_f1.(v) <- t.out_f1.(v) lor mask
  | T.Zero -> t.out_f0.(v) <- t.out_f0.(v) lor mask
  | T.X -> invalid_arg "Ppsfp.add_output_force: X"

let add_pin_force t ~gate ~pin ~mask stuck =
  check_mask mask;
  let v = t.of_netlist.(gate) in
  let span = t.node.((v * stride) + f_fan) in
  if pin < 0 || pin >= span land span_mask then
    invalid_arg "Ppsfp.add_pin_force: pin out of range";
  flag_forced t v pin_forced;
  let e = (span lsr span_shift) + pin in
  match stuck with
  | T.One -> t.pin_f1.(e) <- t.pin_f1.(e) lor mask
  | T.Zero -> t.pin_f0.(e) <- t.pin_f0.(e) lor mask
  | T.X -> invalid_arg "Ppsfp.add_pin_force: X"

(* Every force of every forced node ANDed with [keep]. *)
let mask_forces t keep =
  for k = 0 to t.n_forced - 1 do
    let v = t.forced.(k) in
    t.out_f1.(v) <- t.out_f1.(v) land keep;
    t.out_f0.(v) <- t.out_f0.(v) land keep;
    let span = t.node.((v * stride) + f_fan) in
    let off = span lsr span_shift in
    for e = off to off + (span land span_mask) - 1 do
      t.pin_f1.(e) <- t.pin_f1.(e) land keep;
      t.pin_f0.(e) <- t.pin_f0.(e) land keep
    done
  done;
  t.stale <- true

let clear_forces t =
  mask_forces t 0;
  for k = 0 to t.n_forced - 1 do
    let i = (t.forced.(k) * stride) + f_info in
    t.node.(i) <- t.node.(i) land lnot (out_forced lor pin_forced)
  done;
  t.n_forced <- 0

let rearm t =
  t.diff_lanes <- 0;
  t.full_mode <- false;
  t.activity.(0) <- 0.0;
  t.marked <- false

let[@inline] deviates o z = o <> -(o land 1) || z <> -(z land 1)

let reset t =
  Array.fill t.state_ones 0 (Array.length t.state_ones) 0;
  Array.fill t.state_zeros 0 (Array.length t.state_zeros) 0;
  t.n_dirty <- 0;
  t.stepped <- false;
  rearm t

(* Every flip-flop's packed state: the dirty ones from the state arrays,
   a clean one as the broadcast of its D driver's byte at the last
   step. *)
let save_state t =
  let o = Array.copy t.state_ones and z = Array.copy t.state_zeros in
  if t.stepped then begin
    for i = 0 to Array.length o - 1 do
      let c = Char.code (Bytes.get t.trd (t.tr_base + t.dff_d.(i))) in
      o.(i) <- -(c land 1);
      z.(i) <- -((c lsr 1) land 1)
    done;
    for k = 0 to t.n_dirty - 1 do
      let i = t.dirty.(k) in
      o.(i) <- t.state_ones.(i);
      z.(i) <- t.state_zeros.(i)
    done
  end;
  { snap_ones = o; snap_zeros = z }

let restore_state t s =
  if Array.length s.snap_ones <> Array.length t.state_ones then
    invalid_arg "Ppsfp.restore_state: snapshot of a different circuit";
  Array.blit s.snap_ones 0 t.state_ones 0 (Array.length s.snap_ones);
  Array.blit s.snap_zeros 0 t.state_zeros 0 (Array.length s.snap_zeros);
  t.n_dirty <- 0;
  for i = 0 to Array.length s.snap_ones - 1 do
    if deviates s.snap_ones.(i) s.snap_zeros.(i) then begin
      t.dirty.(t.n_dirty) <- i;
      t.n_dirty <- t.n_dirty + 1
    end
  done;
  t.stepped <- false;
  rearm t

(* Lane 0's present-state code of flip-flop [i]: its D driver's byte at
   the last step, or, before the first step after [reset] or
   [restore_state], lane 0 of the state arrays. *)
let good_code t i =
  if t.stepped then
    Char.code (Bytes.unsafe_get t.trd (t.tr_base + Array.unsafe_get t.dff_d i))
  else (t.state_ones.(i) land 1) lor ((t.state_zeros.(i) land 1) lsl 1)

(* A clean flip-flop is the broadcast of lane 0, so the state of every
   lane is lane 0's codes plus the dirty flip-flops' planes, and two
   states are equal iff both parts are: a flip-flop dirty now whose
   planes equal its marked ones was dirty at the mark as well, so equal
   counts make the dirty sets equal. *)
let mark t =
  t.marked <- true;
  t.mark_id <- t.mark_id + 1;
  for i = 0 to Bytes.length t.mark_good - 1 do
    Bytes.unsafe_set t.mark_good i (Char.unsafe_chr (good_code t i))
  done;
  for k = 0 to t.n_dirty - 1 do
    let i = t.dirty.(k) in
    t.mark_stamp.(i) <- t.mark_id;
    t.mark_ones.(i) <- t.state_ones.(i);
    t.mark_zeros.(i) <- t.state_zeros.(i)
  done;
  t.mark_dirty <- t.n_dirty

let recurs t =
  let rec dirty_same k =
    k >= t.n_dirty
    ||
    let i = t.dirty.(k) in
    t.mark_stamp.(i) = t.mark_id
    && t.mark_ones.(i) = t.state_ones.(i)
    && t.mark_zeros.(i) = t.state_zeros.(i)
    && dirty_same (k + 1)
  in
  let rec good_same i =
    i >= Bytes.length t.mark_good
    || (Char.code (Bytes.unsafe_get t.mark_good i) = good_code t i && good_same (i + 1))
  in
  t.marked && t.n_dirty = t.mark_dirty && dirty_same 0 && good_same 0

(* A clean flip-flop equals lane 0 in every lane, so only the dirty list
   can count. *)
let state_diff_count t ~lane =
  if lane < 1 || lane >= 63 then invalid_arg "Ppsfp.state_diff_count: lane";
  let m = 1 lsl lane in
  let count = ref 0 in
  for k = 0 to t.n_dirty - 1 do
    let i = t.dirty.(k) in
    let o = t.state_ones.(i) and z = t.state_zeros.(i) in
    if (o land 1 <> 0 && z land m <> 0) || (z land 1 <> 0 && o land m <> 0) then
      incr count
  done;
  !count

let drop_lanes t mask =
  let mask = mask land lnot 1 in
  if mask <> 0 then begin
    let keep = lnot mask in
    mask_forces t keep;
    (* Snap the dropped lanes' flip-flop state back to the fault-free
       machine (lane 0): the lanes become quiescent copies and stop
       generating events. A clean flip-flop already is one. *)
    let kept = ref 0 in
    for k = 0 to t.n_dirty - 1 do
      let i = t.dirty.(k) in
      let so = t.state_ones.(i) and sz = t.state_zeros.(i) in
      let so = (so land keep) lor (-(so land 1) land mask) in
      let sz = (sz land keep) lor (-(sz land 1) land mask) in
      t.state_ones.(i) <- so;
      t.state_zeros.(i) <- sz;
      if deviates so sz then begin
        t.dirty.(!kept) <- i;
        incr kept
      end
    done;
    t.n_dirty <- !kept
  end

(* --- the packed step ------------------------------------------------- *)

let[@inline] code t d = Char.code (Bytes.unsafe_get t.trd (t.tr_base + d))

(* Fanin read: a node stamped this step has explicit planes; any other
   node is the broadcast of its fault-free trace byte. *)
let[@inline] read t d =
  let b = d * stride in
  if Array.unsafe_get t.node (b + f_stamp) = t.step_id then begin
    t.rd_o <- Array.unsafe_get t.node (b + f_ones);
    t.rd_z <- Array.unsafe_get t.node (b + f_zeros)
  end
  else begin
    let c = code t d in
    t.rd_o <- -(c land 1);
    t.rd_z <- -((c lsr 1) land 1)
  end

(* Fanin read through the pin forces of edge [e]. *)
let[@inline] read_pin t e =
  read t (Array.unsafe_get t.fan e);
  let f1 = Array.unsafe_get t.pin_f1 e and f0 = Array.unsafe_get t.pin_f0 e in
  let keep = lnot (f1 lor f0) in
  t.rd_o <- (t.rd_o land keep) lor f1;
  t.rd_z <- (t.rd_z land keep) lor f0

let full = -1

let acc_plain t kind off len =
  match kind with
  | 2 | 3 ->
    let o = ref full and z = ref 0 in
    for e = off to off + len - 1 do
      read t (Array.unsafe_get t.fan e);
      o := !o land t.rd_o;
      z := !z lor t.rd_z
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 4 | 5 ->
    let o = ref 0 and z = ref full in
    for e = off to off + len - 1 do
      read t (Array.unsafe_get t.fan e);
      o := !o lor t.rd_o;
      z := !z land t.rd_z
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 6 | 7 ->
    let o = ref 0 and z = ref full in
    for e = off to off + len - 1 do
      read t (Array.unsafe_get t.fan e);
      let io = t.rd_o and iz = t.rd_z in
      let no = (!o land iz) lor (!z land io) in
      z := (!o land io) lor (!z land iz);
      o := no
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 0 | 1 ->
    read t (Array.unsafe_get t.fan off);
    t.acc_o <- t.rd_o;
    t.acc_z <- t.rd_z
  | 8 ->
    t.acc_o <- 0;
    t.acc_z <- full
  | _ ->
    t.acc_o <- full;
    t.acc_z <- 0

let acc_pinned t kind off len =
  match kind with
  | 2 | 3 ->
    let o = ref full and z = ref 0 in
    for e = off to off + len - 1 do
      read_pin t e;
      o := !o land t.rd_o;
      z := !z lor t.rd_z
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 4 | 5 ->
    let o = ref 0 and z = ref full in
    for e = off to off + len - 1 do
      read_pin t e;
      o := !o lor t.rd_o;
      z := !z land t.rd_z
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 6 | 7 ->
    let o = ref 0 and z = ref full in
    for e = off to off + len - 1 do
      read_pin t e;
      let io = t.rd_o and iz = t.rd_z in
      let no = (!o land iz) lor (!z land io) in
      z := (!o land io) lor (!z land iz);
      o := no
    done;
    t.acc_o <- !o;
    t.acc_z <- !z
  | 0 | 1 ->
    read_pin t off;
    t.acc_o <- t.rd_o;
    t.acc_z <- t.rd_z
  | 8 ->
    t.acc_o <- 0;
    t.acc_z <- full
  | _ ->
    t.acc_o <- full;
    t.acc_z <- 0

(* Store planes [o]/[z] at [v] through its output force; returns true
   iff the stored word differs from the fault-free broadcast. *)
let store t v info o z =
  let o, z =
    if info land out_forced = 0 then (o, z)
    else begin
      let f1 = Array.unsafe_get t.out_f1 v and f0 = Array.unsafe_get t.out_f0 v in
      let keep = lnot (f1 lor f0) in
      ((o land keep) lor f1, (z land keep) lor f0)
    end
  in
  let b = v * stride in
  Array.unsafe_set t.node (b + f_stamp) t.step_id;
  Array.unsafe_set t.node (b + f_ones) o;
  Array.unsafe_set t.node (b + f_zeros) z;
  deviates o z

(* Evaluate one combinational node; returns true iff its packed word
   differs from the fault-free broadcast (some lane deviates). *)
let eval_node t v =
  let b = v * stride in
  let info = Array.unsafe_get t.node (b + f_info) in
  let span = Array.unsafe_get t.node (b + f_fan) in
  let kind = info land 15 in
  let off = span lsr span_shift and len = span land span_mask in
  if info land pin_forced = 0 then acc_plain t kind off len
  else acc_pinned t kind off len;
  t.evals <- t.evals + 1;
  if kind land 1 = 1 && kind < 8 then store t v info t.acc_z t.acc_o
  else store t v info t.acc_o t.acc_z

let[@inline] schedule t v =
  let b = v * stride in
  if Array.unsafe_get t.node (b + f_sched) <> t.step_id then begin
    Array.unsafe_set t.node (b + f_sched) t.step_id;
    let lv = Array.unsafe_get t.node (b + f_level) in
    let len = Array.unsafe_get t.bucket_len lv in
    Array.unsafe_set t.bucket (Array.unsafe_get t.bucket_start lv + len) v;
    Array.unsafe_set t.bucket_len lv (len + 1)
  end

(* A deviating word reaches the node's consumers: every one in event
   mode, only the flip-flops (the end of the span) in full-sweep mode,
   where every gate runs anyway. *)
let propagate t v =
  let span = Array.unsafe_get t.node ((v * stride) + f_fo) in
  let off = span lsr span_shift in
  for e = off to off + (span land span_mask) - 1 do
    schedule t (Array.unsafe_get t.fo e)
  done

let propagate_ffs t v =
  let b = v * stride in
  let span = Array.unsafe_get t.node (b + f_fo) in
  let stop = (span lsr span_shift) + (span land span_mask) in
  for e = stop - (Array.unsafe_get t.node (b + f_info) lsr ff_shift) to stop - 1 do
    schedule t (Array.unsafe_get t.fo e)
  done

let seed_source t v o z =
  if store t v (Array.unsafe_get t.node ((v * stride) + f_info)) o z then
    if t.full_mode then propagate_ffs t v else propagate t v

(* The step's sources: the dirty flip-flops' state, then every
   output-forced input or flip-flop not seeded yet (a clean one from its
   trace byte). *)
let seed t =
  for k = 0 to t.n_dirty - 1 do
    let i = Array.unsafe_get t.dirty k in
    seed_source t (t.n_pis + i) (Array.unsafe_get t.state_ones i)
      (Array.unsafe_get t.state_zeros i)
  done;
  for k = 0 to t.n_seeds - 1 do
    let v = Array.unsafe_get t.seeds k in
    if Array.unsafe_get t.node ((v * stride) + f_stamp) <> t.step_id then begin
      let c = code t v in
      seed_source t v (-(c land 1)) (-((c lsr 1) land 1))
    end
  done

(* The trace codes a force disagrees with, as a bit set: every code but
   the forced value's own (1 for One, 2 for Zero), so X disagrees with
   both. *)
let disagreeing f1 f0 =
  (if f1 <> 0 then 0b1111 land lnot (1 lsl 1) else 0)
  lor if f0 <> 0 then 0b1111 land lnot (1 lsl 2) else 0

let add_act t site v codes =
  if codes <> 0 then begin
    t.act <- room t.act (3 * t.n_act + 2);
    t.act.(3 * t.n_act) <- site;
    t.act.((3 * t.n_act) + 1) <- v;
    t.act.((3 * t.n_act) + 2) <- codes;
    t.n_act <- t.n_act + 1
  end

let add_pin_acts t v =
  let span = t.node.((v * stride) + f_fan) in
  let off = span lsr span_shift in
  for e = off to off + (span land span_mask) - 1 do
    add_act t t.fan.(e) v (disagreeing t.pin_f1.(e) t.pin_f0.(e))
  done

let rebuild t =
  t.n_act <- 0;
  t.n_seeds <- 0;
  for k = 0 to t.n_forced - 1 do
    let v = t.forced.(k) in
    if v < t.comb_base then add_pin_acts t v
  done;
  t.n_act_ffs <- t.n_act;
  for k = 0 to t.n_forced - 1 do
    let v = t.forced.(k) in
    if v >= t.comb_base then begin
      add_act t v v (disagreeing t.out_f1.(v) t.out_f0.(v));
      add_pin_acts t v
    end
    else if t.out_f1.(v) lor t.out_f0.(v) <> 0 then begin
      t.seeds <- room t.seeds t.n_seeds;
      t.seeds.(t.n_seeds) <- v;
      t.n_seeds <- t.n_seeds + 1
    end
  done;
  t.stale <- false

(* A forced node none of whose fanins deviates computes the fault-free
   value in every lane unless one of its forces disagrees with the value
   it overrides: schedule the others, the flip-flops into the clock.
   [stop] is [n_act_ffs] in full-sweep mode, where every gate runs
   anyway. *)
let activate t stop =
  let act = t.act in
  for k = 0 to stop - 1 do
    let j = 3 * k in
    if (Array.unsafe_get act (j + 2) lsr code t (Array.unsafe_get act j)) land 1 <> 0 then
      schedule t (Array.unsafe_get act (j + 1))
  done

let step_event t =
  for lv = 1 to t.max_level do
    let len = Array.unsafe_get t.bucket_len lv in
    if len > 0 then begin
      Array.unsafe_set t.bucket_len lv 0;
      let start = Array.unsafe_get t.bucket_start lv in
      for k = start to start + len - 1 do
        let v = Array.unsafe_get t.bucket k in
        if eval_node t v then propagate t v
      done
    end
  done

let step_full t =
  let dirty = ref 0 in
  for v = t.comb_base to t.n - 1 do
    if eval_node t v then begin
      incr dirty;
      propagate_ffs t v
    end
  done;
  !dirty

let detect t =
  let diff = ref 0 in
  let pos = t.pos in
  for i = 0 to Array.length pos - 1 do
    let b = Array.unsafe_get pos i * stride in
    if Array.unsafe_get t.node (b + f_stamp) = t.step_id then begin
      let o = Array.unsafe_get t.node (b + f_ones) and z = Array.unsafe_get t.node (b + f_zeros) in
      if o land 1 <> 0 then diff := !diff lor z
      else if z land 1 <> 0 then diff := !diff lor o
    end
  done;
  t.diff_lanes <- !diff land lnot 1

(* The next state of the flip-flops in the clock bucket: those whose D
   driver deviated and those whose D-pin force was activated. The
   deviating ones are the new dirty list; every other flip-flop is
   clean. *)
let clock t =
  let lv = t.max_level + 1 in
  let len = Array.unsafe_get t.bucket_len lv in
  Array.unsafe_set t.bucket_len lv 0;
  t.n_dirty <- 0;
  for k = t.n_pis to t.n_pis + len - 1 do
    let v = Array.unsafe_get t.bucket k in
    let e = Array.unsafe_get t.node ((v * stride) + f_fan) lsr span_shift in
    read_pin t e;
    if deviates t.rd_o t.rd_z then begin
      let i = v - t.n_pis in
      Array.unsafe_set t.state_ones i t.rd_o;
      Array.unsafe_set t.state_zeros i t.rd_z;
      Array.unsafe_set t.dirty t.n_dirty i;
      t.n_dirty <- t.n_dirty + 1
    end
  done;
  t.stepped <- true

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
  if t.stale then rebuild t;
  seed t;
  activate t (if t.full_mode then t.n_act_ffs else t.n_act);
  let active =
    if t.full_mode then begin
      t.n_full_steps <- t.n_full_steps + 1;
      step_full t
    end
    else begin
      t.n_event_steps <- t.n_event_steps + 1;
      let before = t.evals in
      step_event t;
      t.evals - before
    end
  in
  let act = float_of_int active /. float_of_int (max 1 (t.n - t.comb_base)) in
  t.activity.(0) <- (0.7 *. t.activity.(0)) +. (0.3 *. act);
  if t.full_mode then begin
    if t.activity.(0) < to_event then t.full_mode <- false
  end
  else if t.activity.(0) > to_full then t.full_mode <- true;
  detect t;
  clock t
