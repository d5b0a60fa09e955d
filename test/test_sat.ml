(* SAT subsystem tests: solver core vs brute force, CNF encoder vs the
   packed fault simulator, DIMACS round-trip, and verdict cross-checks
   on synthetic and registry circuits. *)

module Solver = Bist_sat.Solver

let qcheck = Testutil.qcheck

(* --- Solver core vs brute-force enumeration ------------------------- *)

(* A random CNF over [nvars] variables as a literal-list list. *)
let cnf_gen =
  QCheck.Gen.(
    int_range 1 8 >>= fun nvars ->
    int_range 1 30 >>= fun nclauses ->
    let lit_gen =
      int_range 0 (nvars - 1) >>= fun v ->
      bool >|= fun sgn ->
      let l = Solver.lit_of_var v in
      if sgn then l else Solver.neg l
    in
    let clause_gen = int_range 1 4 >>= fun k -> list_size (return k) lit_gen in
    list_size (return nclauses) clause_gen >|= fun cls -> (nvars, cls))

let pp_cnf (nvars, cls) =
  Printf.sprintf "nvars=%d %s" nvars
    (String.concat " & "
       (List.map
          (fun c ->
            "("
            ^ String.concat "|"
                (List.map
                   (fun l ->
                     Printf.sprintf "%s%d"
                       (if Solver.pos l then "" else "~")
                       (Solver.var_of_lit l))
                   c)
            ^ ")")
          cls))

let brute_force_sat nvars cls =
  let n = 1 lsl nvars in
  let rec try_assign i =
    if i >= n then false
    else
      let value v = i land (1 lsl v) <> 0 in
      let clause_ok c =
        List.exists
          (fun l ->
            let x = value (Solver.var_of_lit l) in
            if Solver.pos l then x else not x)
          c
      in
      if List.for_all clause_ok cls then true else try_assign (i + 1)
  in
  try_assign 0

let check_model s cls =
  List.for_all (fun c -> List.exists (fun l -> Solver.model_lit s l) c) cls

let solver_vs_brute =
  QCheck.Test.make ~count:300 ~name:"solver agrees with brute force"
    (QCheck.make ~print:pp_cnf cnf_gen)
    (fun (nvars, cls) ->
      let s = Solver.create () in
      Solver.ensure_vars s nvars;
      List.iter (fun c -> Solver.add_clause_l s c) cls;
      match Solver.solve s with
      | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown"
      | Solver.Sat ->
        if not (brute_force_sat nvars cls) then
          QCheck.Test.fail_report "solver Sat but brute force Unsat"
        else if not (check_model s cls) then
          QCheck.Test.fail_report "model does not satisfy the CNF"
        else true
      | Solver.Unsat ->
        if brute_force_sat nvars cls then
          QCheck.Test.fail_report "solver Unsat but brute force Sat"
        else true)

let solver_assumptions_vs_brute =
  QCheck.Test.make ~count:300 ~name:"assumptions agree with brute force"
    (QCheck.make
       ~print:(fun (c, a) -> pp_cnf c ^ Printf.sprintf " assume v0=%b" a)
       QCheck.Gen.(pair cnf_gen bool))
    (fun ((nvars, cls), a0) ->
      let s = Solver.create () in
      Solver.ensure_vars s nvars;
      List.iter (fun c -> Solver.add_clause_l s c) cls;
      let assumption =
        if a0 then Solver.lit_of_var 0 else Solver.neg (Solver.lit_of_var 0)
      in
      let expected = brute_force_sat nvars ([ assumption ] :: cls) in
      (* Solve twice with opposite assumptions first, to exercise the
         incremental path: earlier solves must not change verdicts. *)
      ignore (Solver.solve ~assumptions:[| Solver.neg assumption |] s);
      match Solver.solve ~assumptions:[| assumption |] s with
      | Solver.Unknown -> QCheck.Test.fail_report "unexpected Unknown"
      | Solver.Sat ->
        if not expected then
          QCheck.Test.fail_report "Sat under assumption, brute force disagrees"
        else if not (Solver.model_lit s assumption) then
          QCheck.Test.fail_report "model violates the assumption"
        else check_model s cls
      | Solver.Unsat ->
        if expected then
          QCheck.Test.fail_report "Unsat under assumption, brute force disagrees"
        else true)

let test_solver_basics () =
  let s = Solver.create () in
  let a = Solver.lit_of_var (Solver.new_var s) in
  let b = Solver.lit_of_var (Solver.new_var s) in
  Solver.add_clause_l s [ a; b ];
  Solver.add_clause_l s [ Solver.neg a; b ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "b is forced" true (Solver.model_lit s b);
  Solver.add_clause_l s [ Solver.neg b; a ];
  Alcotest.(check bool) "still sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "a forced too" true (Solver.model_lit s a);
  Alcotest.(check bool) "unsat under ~a" true
    (Solver.solve ~assumptions:[| Solver.neg a |] s = Solver.Unsat);
  Alcotest.(check bool) "recovers after assumption" true
    (Solver.solve s = Solver.Sat);
  Solver.add_clause_l s [ Solver.neg a; Solver.neg b ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "stays unsat" true (Solver.solve s = Solver.Unsat)

let test_solver_empty_clause () =
  let s = Solver.create () in
  Solver.add_clause_l s [];
  Alcotest.(check bool) "empty clause" true (Solver.solve s = Solver.Unsat)

let test_solver_budget () =
  (* A hard pigeonhole-style instance with a 0-conflict budget must
     come back Unknown, not hang or crash. *)
  let s = Solver.create () in
  let n = 6 in
  let holes = n - 1 in
  let v i j = Solver.lit_of_var ((i * holes) + j) in
  for i = 0 to n - 1 do
    Solver.add_clause s (Array.init holes (fun j -> v i j))
  done;
  for j = 0 to holes - 1 do
    for i = 0 to n - 1 do
      for i' = i + 1 to n - 1 do
        Solver.add_clause_l s [ Solver.neg (v i j); Solver.neg (v i' j) ]
      done
    done
  done;
  Alcotest.(check bool) "budget exhausts" true
    (Solver.solve ~max_conflicts:3 s = Solver.Unknown);
  Alcotest.(check bool) "full solve proves unsat" true
    (Solver.solve s = Solver.Unsat)

(* --- CNF encoder vs the packed simulator ---------------------------- *)

module Cnf = Bist_sat.Cnf
module Satgen = Bist_sat.Satgen
module Dimacs = Bist_sat.Dimacs
module Netlist = Bist_circuit.Netlist
module Fault = Bist_fault.Fault
module Fsim = Bist_fault.Fsim
module Universe = Bist_fault.Universe
module Tseq = Bist_logic.Tseq
module Vector = Bist_logic.Vector
module T = Bist_logic.Ternary
module P = Packed

(* Constrain the view's PIs to a binary sequence via assumptions. *)
let pi_assumptions view seq =
  let k = Tseq.length seq in
  let w = Tseq.width seq in
  Array.init (k * w) (fun i ->
      let f = i / w and pi = i mod w in
      let l = Cnf.pi_one_lit view ~frame:f ~pi in
      match Vector.get (Tseq.get seq f) pi with
      | T.One -> l
      | T.Zero -> Bist_sat.Solver.neg l
      | T.X -> invalid_arg "pi_assumptions: X")

(* Under a fully-constrained binary input sequence, every good rail
   pair in the CNF must decode to exactly the simulator's lane-0 value
   for every node at every frame. *)
let good_rails_vs_sim =
  QCheck.Test.make ~count:40 ~name:"good rails match simulator lane 0"
    (QCheck.make
       ~print:(fun (seed, seq_seed) ->
         Printf.sprintf "circuit=%d seq=%d" seed seq_seed)
       QCheck.Gen.(pair (int_range 0 24) (int_range 0 10_000)))
    (fun (seed, seq_seed) ->
      let circuit = Testutil.small_circuit seed in
      let k = 3 in
      let seq =
        Tseq.random_binary
          (Bist_util.Rng.create seq_seed)
          ~width:(Netlist.num_inputs circuit)
          ~length:k
      in
      let view = Cnf.view ~frames:k circuit in
      let solver = Solver.create () in
      Solver.ensure_vars solver (Cnf.base_vars view);
      Cnf.iter_good_clauses view (fun c -> Solver.add_clause solver c);
      (match Solver.solve ~assumptions:(pi_assumptions view seq) solver with
      | Solver.Sat -> ()
      | _ -> QCheck.Test.fail_report "good view unsat under binary inputs");
      let sim = Packed_sim.create circuit in
      Packed_sim.reset sim;
      let ok = ref true in
      for f = 0 to k - 1 do
        Packed_sim.step sim (Tseq.get seq f);
        for n = 0 to Netlist.size circuit - 1 do
          let o, z = Cnf.good_rails view ~frame:f n in
          let decoded =
            match (Solver.model_lit solver o, Solver.model_lit solver z) with
            | true, false -> T.One
            | false, true -> T.Zero
            | false, false -> T.X
            | true, true -> T.X (* rails exclusive by construction *)
          in
          if decoded <> P.get (Packed_sim.node_value sim n) 0 then ok := false
        done
      done;
      !ok)

(* Exhaustive exactness on narrow circuits: enumerate every binary
   sequence of length [k] and compare "some sequence detects" with the
   SAT verdict. Detection inside a shorter prefix is covered because a
   detection at step u survives arbitrary later vectors. *)
let all_sequences ~width ~length =
  let n_vec = 1 lsl width in
  let rec go acc f =
    if f = length then List.rev acc |> Array.of_list |> Tseq.of_vectors |> fun s -> [ s ]
    else
      List.concat_map
        (fun v ->
          go
            (Vector.init width (fun i ->
                 if v land (1 lsl i) <> 0 then T.One else T.Zero)
            :: acc)
            (f + 1))
        (List.init n_vec (fun v -> v))
  in
  go [] 0

let test_exact_verdicts_brute () =
  List.iter
    (fun seed ->
      let circuit = Testutil.small_circuit seed in
      let w = Netlist.num_inputs circuit in
      Alcotest.(check bool) "narrow circuit" true (w <= 3);
      let k = 2 in
      let seqs = all_sequences ~width:w ~length:k in
      let view = Cnf.view ~frames:k circuit in
      let universe = Universe.collapsed circuit in
      Universe.iter
        (fun _ fault ->
          let brute =
            List.exists (fun s -> Fsim.detects circuit fault s) seqs
          in
          match Satgen.solve_fault view fault with
          | Satgen.Unknown -> Alcotest.fail "unexpected Unknown"
          | Satgen.Test seq ->
            Alcotest.(check bool)
              (Fault.name circuit fault ^ ": SAT but no sequence detects")
              true brute;
            Alcotest.(check bool)
              (Fault.name circuit fault ^ ": derived test must detect")
              true
              (Fsim.detects circuit fault seq)
          | Satgen.Unreachable | Satgen.Blocked ->
            Alcotest.(check bool)
              (Fault.name circuit fault ^ ": UNSAT but a sequence detects")
              false brute)
        universe)
    [ 0; 4; 8 ]

(* The ISSUE-level cross-check: SAT verdicts vs the packed fault
   simulator on the 25 seeded synthetic circuits, at a small frame
   bound. UNSAT => random simulation must never detect; SAT => the
   decoded test detects (checked by Satgen itself, re-checked here). *)
let verdicts_vs_sim =
  QCheck.Test.make ~count:25 ~name:"verdicts vs simulator on synthetics"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 24))
    (fun seed ->
      let circuit = Testutil.small_circuit seed in
      let k = 3 in
      let view = Cnf.view ~frames:k circuit in
      let universe = Universe.collapsed circuit in
      let rng = Bist_util.Rng.create (1000 + seed) in
      (* A fixed slice of the universe keeps the test fast. *)
      let step = max 1 (Universe.size universe / 8) in
      let i = ref 0 in
      Universe.iter
        (fun id fault ->
          if id mod step = 0 then begin
            incr i;
            match Satgen.solve_fault view fault with
            | Satgen.Unknown -> ()
            | Satgen.Test seq ->
              if not (Fsim.detects circuit fault seq) then
                QCheck.Test.fail_reportf "%s: SAT test fails simulation"
                  (Fault.name circuit fault)
            | Satgen.Unreachable | Satgen.Blocked ->
              for _ = 1 to 16 do
                let s =
                  Tseq.random_binary rng
                    ~width:(Netlist.num_inputs circuit)
                    ~length:k
                in
                if Fsim.detects circuit fault s then
                  QCheck.Test.fail_reportf
                    "%s: proved untestable at %d frames but simulator detects"
                    (Fault.name circuit fault) k
              done
          end)
        universe;
      !i > 0)

let test_verdicts_registry () =
  (* Every registry circuit at a small frame bound: spot-check a few
     faults per circuit; UNSAT verdicts are cross-checked by random
     simulation at the same length. *)
  List.iter
    (fun entry ->
      let circuit = entry.Bist_bench.Registry.circuit () in
      let k = 2 in
      let view = Cnf.view ~frames:k circuit in
      let universe = Universe.collapsed circuit in
      let rng = Bist_util.Rng.create 7 in
      let step = max 1 (Universe.size universe / 3) in
      Universe.iter
        (fun id fault ->
          if id mod step = 0 then
            match Satgen.solve_fault ~max_conflicts:2_000 view fault with
            | Satgen.Unknown -> ()
            | Satgen.Test seq ->
              Alcotest.(check bool)
                (entry.Bist_bench.Registry.name
                 ^ " " ^ Fault.name circuit fault ^ ": test detects")
                true
                (Fsim.detects circuit fault seq)
            | Satgen.Unreachable | Satgen.Blocked ->
              for _ = 1 to 8 do
                let s =
                  Tseq.random_binary rng
                    ~width:(Netlist.num_inputs circuit)
                    ~length:k
                in
                Alcotest.(check bool)
                  (entry.Bist_bench.Registry.name
                   ^ " " ^ Fault.name circuit fault
                   ^ ": proved untestable, sim must not detect")
                  false
                  (Fsim.detects circuit fault s)
              done)
        universe)
    (Bist_bench.Registry.all ())

(* --- DIMACS round-trip ---------------------------------------------- *)

let test_dimacs_roundtrip () =
  let circuit = Bist_bench.Registry.s27.Bist_bench.Registry.circuit () in
  let view = Cnf.view ~frames:3 circuit in
  let universe = Universe.collapsed circuit in
  let fault = Universe.get universe 0 in
  let text = Dimacs.to_string view fault in
  (* Header names circuit, fault and frame bound. *)
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  Alcotest.(check bool) "header names circuit" true (contains "circuit s27");
  Alcotest.(check bool) "header names fault" true
    (contains (Fault.name circuit fault));
  Alcotest.(check bool) "header names frames" true (contains "frames 3");
  let e = Dimacs.export view fault in
  let parsed = Dimacs.parse text in
  Alcotest.(check int) "nvars round-trips" e.Dimacs.nvars parsed.Dimacs.p_nvars;
  Alcotest.(check int) "clause count round-trips"
    (List.length e.Dimacs.clauses)
    (List.length parsed.Dimacs.p_clauses);
  List.iter2
    (fun a b ->
      Alcotest.(check (array int)) "clause round-trips" a b)
    e.Dimacs.clauses parsed.Dimacs.p_clauses;
  (* The parsed clauses solve to the same verdict as the direct load. *)
  let direct = Satgen.solve_fault view fault in
  let s = Solver.create () in
  Solver.ensure_vars s parsed.Dimacs.p_nvars;
  List.iter (fun c -> Solver.add_clause s c) parsed.Dimacs.p_clauses;
  let via_dimacs =
    Solver.solve ~assumptions:[| e.Dimacs.query.Cnf.detect |] s
  in
  let agree =
    match (direct, via_dimacs) with
    | Satgen.Test _, Solver.Sat -> true
    | (Satgen.Unreachable | Satgen.Blocked), Solver.Unsat -> true
    | Satgen.Unknown, _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "parsed CNF agrees with direct load" true agree

let test_dimacs_parse_errors () =
  let bad text =
    match Dimacs.parse text with
    | exception Dimacs.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "clause before header" true (bad "1 2 0\n");
  Alcotest.(check bool) "bad literal" true (bad "p cnf 2 1\n1 foo 0\n");
  Alcotest.(check bool) "unterminated" true (bad "p cnf 2 1\n1 2\n");
  Alcotest.(check bool) "out of range" true (bad "p cnf 1 1\n2 0\n");
  Alcotest.(check bool) "count mismatch" true (bad "p cnf 2 2\n1 2 0\n")

let suite =
  [
    Alcotest.test_case "solver basics" `Quick test_solver_basics;
    Alcotest.test_case "empty clause" `Quick test_solver_empty_clause;
    Alcotest.test_case "conflict budget" `Quick test_solver_budget;
    qcheck solver_vs_brute;
    qcheck solver_assumptions_vs_brute;
    qcheck good_rails_vs_sim;
    Alcotest.test_case "exact verdicts (brute force)" `Quick
      test_exact_verdicts_brute;
    qcheck verdicts_vs_sim;
    Alcotest.test_case "verdicts on registry circuits" `Slow
      test_verdicts_registry;
    Alcotest.test_case "dimacs round-trip" `Quick test_dimacs_roundtrip;
    Alcotest.test_case "dimacs parse errors" `Quick test_dimacs_parse_errors;
  ]
