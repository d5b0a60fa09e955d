(* Shared CNF view of a netlist: a Tseitin encoding of the fault-free
   machine unrolled for [frames] time frames from the all-X reset
   state, in the dual-rail representation that mirrors the two planes
   of the packed fault kernel [Bist_sim.Ppsfp].

   Every circuit line at every frame is a pair of rails [(one, zero)]:
   [one] true means the line is binary 1, [zero] true means binary 0,
   both false means X. Primary inputs are constrained to be binary
   ((p|q)(~p|~q)) — complete by ternary monotonicity: any detecting
   sequence with X inputs stays detecting under every binary
   completion, so restricting the search to binary inputs loses
   nothing. Flip-flops carry both rails false at frame 0 (the all-X
   reset) and alias their D driver's rails of the previous frame
   afterwards. Gates are rail-monotone AND/OR networks:

     AND   o1 = /\ a1_i        o0 = \/ a0_i
     OR    o1 = \/ a1_i        o0 = /\ a0_i
     XOR   left fold of  r1 = (p1&a0)|(p0&a1), r0 = (p1&a1)|(p0&a0)
     BUF/NOT/CONST/NAND/NOR/XNOR by aliasing/swapping the above

   exactly the plane equations of the packed simulator, so SAT/UNSAT
   verdicts agree with [Bist_fault.Fsim] on every sequence of length
   <= frames.

   The fault-free clauses are encoded once per view; per-fault clauses
   (the faulty cone copy, excitation and detection selectors) are
   emitted through a caller-supplied sink so the same encoding feeds
   both a fresh solver (deterministic, history-independent verdicts)
   and the DIMACS exporter. *)

module Netlist = Bist_circuit.Netlist
module Gate = Bist_circuit.Gate
module T = Bist_logic.Ternary

let const_true = Solver.lit_of_var 0
let const_false = Solver.neg const_true

type view = {
  circuit : Netlist.t;
  frames : int;
  base_vars : int;
  good : int array array; (* fault-free clauses, [|const_true|] first *)
  lit1 : int array array; (* lit1.(f).(n): one-rail literal of node n *)
  lit0 : int array array;
}

(* Clause sink: [fresh] allocates the next variable, [emit] receives
   each clause (the array is not retained by the encoder). *)
type sink = { fresh : unit -> int; emit : int array -> unit }

(* [define_and sink lits] returns a literal equivalent to the
   conjunction of [lits], simplifying constants and trivial cases. *)
let define_and sink lits =
  let lits = List.filter (fun l -> l <> const_true) lits in
  if List.mem const_false lits then const_false
  else
    match lits with
    | [] -> const_true
    | [ l ] -> l
    | _ ->
      let r = Solver.lit_of_var (sink.fresh ()) in
      List.iter (fun l -> sink.emit [| Solver.neg r; l |]) lits;
      sink.emit
        (Array.of_list (r :: List.map Solver.neg lits));
      r

let define_or sink lits =
  Solver.neg (define_and sink (List.map Solver.neg lits))

(* One XOR fold step over rail pairs, as in the simulator's plane
   fold: [(p1,p0) * (a1,a0) -> (r1,r0)]. *)
let xor_fold sink (p1, p0) (a1, a0) =
  let r1 = define_or sink [ define_and sink [ p1; a0 ]; define_and sink [ p0; a1 ] ] in
  let r0 = define_or sink [ define_and sink [ p1; a1 ]; define_and sink [ p0; a0 ] ] in
  (r1, r0)

(* Rails of a combinational gate from its fanin rails. [fan] is the
   array of fanin rail pairs in pin order. *)
let encode_gate sink kind fan =
  match (kind : Gate.kind) with
  | Gate.Buf -> fan.(0)
  | Gate.Not ->
    let o, z = fan.(0) in
    (z, o)
  | Gate.Const0 -> (const_false, const_true)
  | Gate.Const1 -> (const_true, const_false)
  | Gate.And | Gate.Nand ->
    let o1 = define_and sink (Array.to_list (Array.map fst fan)) in
    let o0 = define_or sink (Array.to_list (Array.map snd fan)) in
    if kind = Gate.Nand then (o0, o1) else (o1, o0)
  | Gate.Or | Gate.Nor ->
    let o1 = define_or sink (Array.to_list (Array.map fst fan)) in
    let o0 = define_and sink (Array.to_list (Array.map snd fan)) in
    if kind = Gate.Nor then (o0, o1) else (o1, o0)
  | Gate.Xor | Gate.Xnor ->
    (* The simulator folds from the constant-0 accumulator, whose first
       step yields the first fanin's rails unchanged. *)
    let acc = ref fan.(0) in
    for i = 1 to Array.length fan - 1 do
      acc := xor_fold sink !acc fan.(i)
    done;
    let o, z = !acc in
    if kind = Gate.Xnor then (z, o) else (o, z)
  | Gate.Input | Gate.Dff -> invalid_arg "Cnf.encode_gate: not combinational"

let view ~frames circuit =
  if frames < 1 then invalid_arg "Cnf.view: frames must be >= 1";
  let n = Netlist.size circuit in
  let counter = ref 1 (* var 0 is the constant-true variable *) in
  let clauses = ref [ [| const_true |] ] in
  let sink =
    {
      fresh =
        (fun () ->
          let v = !counter in
          incr counter;
          v);
      emit = (fun c -> clauses := c :: !clauses);
    }
  in
  let lit1 = Array.make_matrix frames n const_false in
  let lit0 = Array.make_matrix frames n const_false in
  for f = 0 to frames - 1 do
    Array.iter
      (fun pi ->
        let p = Solver.lit_of_var (sink.fresh ()) in
        let q = Solver.lit_of_var (sink.fresh ()) in
        sink.emit [| p; q |];
        sink.emit [| Solver.neg p; Solver.neg q |];
        lit1.(f).(pi) <- p;
        lit0.(f).(pi) <- q)
      (Netlist.inputs circuit);
    Array.iter
      (fun d ->
        if f = 0 then begin
          (* all-X reset: both rails false *)
          lit1.(f).(d) <- const_false;
          lit0.(f).(d) <- const_false
        end
        else begin
          let drv = (Netlist.fanins circuit d).(0) in
          lit1.(f).(d) <- lit1.(f - 1).(drv);
          lit0.(f).(d) <- lit0.(f - 1).(drv)
        end)
      (Netlist.dffs circuit);
    Array.iter
      (fun g ->
        let fan =
          Array.map
            (fun a -> (lit1.(f).(a), lit0.(f).(a)))
            (Netlist.fanins circuit g)
        in
        let o, z = encode_gate sink (Netlist.kind circuit g) fan in
        lit1.(f).(g) <- o;
        lit0.(f).(g) <- z)
      (Netlist.topo_order circuit)
  done;
  {
    circuit;
    frames;
    base_vars = !counter;
    good = Array.of_list (List.rev !clauses);
    lit1;
    lit0;
  }

let circuit v = v.circuit
let frames v = v.frames
let base_vars v = v.base_vars
let iter_good_clauses v f = Array.iter f v.good
let num_good_clauses v = Array.length v.good

let pi_one_lit v ~frame ~pi =
  v.lit1.(frame).((Netlist.inputs v.circuit).(pi))

let good_rails v ~frame node = (v.lit1.(frame).(node), v.lit0.(frame).(node))

(* Static forward cone of a fault site: the site node plus everything
   reachable through fanouts, crossing flip-flops (a DFF lists its D
   driver as a fanin, so [Netlist.fanouts] already includes the
   sequential edge). *)
let cone circuit start =
  let in_cone = Array.make (Netlist.size circuit) false in
  let rec visit n =
    if not in_cone.(n) then begin
      in_cone.(n) <- true;
      Array.iter visit (Netlist.fanouts circuit n)
    end
  in
  visit start;
  in_cone

let rails_of_stuck stuck =
  match (stuck : T.t) with
  | T.One -> (const_true, const_false)
  | T.Zero -> (const_false, const_true)
  | T.X -> invalid_arg "Cnf: stuck-at-X"

type query = { excite : int; detect : int }

let encode_fault v sink (fault : Bist_fault.Fault.t) =
  let c = v.circuit in
  let k = v.frames in
  let site_node =
    match fault.site with
    | Bist_fault.Fault.Output n -> n
    | Bist_fault.Fault.Pin { gate; _ } -> gate
  in
  let in_cone = cone c site_node in
  let stuck_rails = rails_of_stuck fault.stuck in
  (* Faulty rails, defaulting to the fault-free ones outside the cone. *)
  let fl1 = Array.map Array.copy v.lit1 in
  let fl0 = Array.map Array.copy v.lit0 in
  let set f n (o, z) =
    fl1.(f).(n) <- o;
    fl0.(f).(n) <- z
  in
  for f = 0 to k - 1 do
    Array.iter
      (fun pi ->
        if fault.site = Bist_fault.Fault.Output pi then
          set f pi stuck_rails)
      (Netlist.inputs c);
    Array.iter
      (fun d ->
        if fault.site = Bist_fault.Fault.Output d then set f d stuck_rails
        else if fault.site = Bist_fault.Fault.Pin { gate = d; pin = 0 } then begin
          (* The D-pin force applies at clocking time: the reset X of
             frame 0 is unaffected, every later frame holds the stuck
             value. *)
          if f > 0 then set f d stuck_rails
        end
        else if in_cone.(d) && f > 0 then begin
          let drv = (Netlist.fanins c d).(0) in
          set f d (fl1.(f - 1).(drv), fl0.(f - 1).(drv))
        end)
      (Netlist.dffs c);
    Array.iter
      (fun g ->
        if fault.site = Bist_fault.Fault.Output g then set f g stuck_rails
        else if in_cone.(g) then begin
          let fanins = Netlist.fanins c g in
          let fan =
            Array.mapi
              (fun pin a ->
                if fault.site = Bist_fault.Fault.Pin { gate = g; pin } then
                  stuck_rails
                else (fl1.(f).(a), fl0.(f).(a)))
              fanins
          in
          (* If no fanin rail differs from the fault-free copy the gate
             is (this frame) unaffected: alias instead of re-encoding. *)
          let same =
            Array.for_all2
              (fun (o, z) a -> o = v.lit1.(f).(a) && z = v.lit0.(f).(a))
              fan fanins
          in
          if not same then set f g (encode_gate sink (Netlist.kind c g) fan)
        end)
      (Netlist.topo_order c)
  done;
  (* Excitation selector: the fault site's fault-free driver takes the
     opposite of the stuck value at some frame. *)
  let driver =
    match fault.site with
    | Bist_fault.Fault.Output n -> n
    | Bist_fault.Fault.Pin { gate; pin } -> (Netlist.fanins c gate).(pin)
  in
  let excite_rail f =
    match fault.stuck with
    | T.Zero -> v.lit1.(f).(driver)
    | T.One -> v.lit0.(f).(driver)
    | T.X -> assert false
  in
  let excite = Solver.lit_of_var (sink.fresh ()) in
  let erails = List.init k excite_rail in
  if not (List.mem const_true erails) then
    sink.emit
      (Array.of_list
         (Solver.neg excite :: List.filter (fun l -> l <> const_false) erails));
  (* Detection selector: at some frame some primary output is binary in
     the fault-free machine and the opposite binary value in the faulty
     machine — [Ppsfp]'s detection mask, literally. *)
  let ts = ref [] in
  for f = 0 to k - 1 do
    Array.iter
      (fun po ->
        let g1 = v.lit1.(f).(po) and g0 = v.lit0.(f).(po) in
        let y1 = fl1.(f).(po) and y0 = fl0.(f).(po) in
        if not (y1 = g1 && y0 = g0) then begin
          let t1 = define_and sink [ g1; y0 ] in
          if t1 <> const_false then ts := t1 :: !ts;
          let t0 = define_and sink [ g0; y1 ] in
          if t0 <> const_false then ts := t0 :: !ts
        end)
      (Netlist.outputs c)
  done;
  let detect = Solver.lit_of_var (sink.fresh ()) in
  if not (List.mem const_true !ts) then
    sink.emit (Array.of_list (Solver.neg detect :: !ts));
  { excite; detect }

(* Convenience: a fresh solver loaded with the fault-free view plus one
   fault's clauses. A new solver per fault keeps verdicts deterministic
   and independent of query history (checkpoint/resume relies on
   this). *)
let load v fault =
  let s = Solver.create () in
  Solver.ensure_vars s (base_vars v);
  iter_good_clauses v (fun c -> Solver.add_clause s c);
  let sink =
    { fresh = (fun () -> Solver.new_var s); emit = (fun c -> Solver.add_clause s c) }
  in
  let q = encode_fault v sink fault in
  (s, q)
