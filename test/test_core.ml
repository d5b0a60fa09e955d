(* Suites for Bist_core: the expansion operators (Table 1), Procedure 2
   (the Section 3.1 walkthrough), Procedure 1, static compaction of S,
   and the end-to-end scheme. *)

module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Ops = Bist_core.Ops
module Procedure1 = Bist_core.Procedure1
module Procedure2 = Bist_core.Procedure2
module Postprocess = Bist_core.Postprocess
module Scheme = Bist_core.Scheme
module Universe = Bist_fault.Universe
module Fsim = Bist_fault.Fsim

let s27 = Bist_bench.S27.circuit ()
let s27_universe = Universe.collapsed s27
let s27_t0 = Bist_bench.S27.t0 ()

(* Table 1 of the paper, verbatim. *)
let test_table1 () =
  let s = Tseq.of_strings [ "000"; "110" ] in
  let expected_s'' =
    [ "000"; "110"; "000"; "110"; "111"; "001"; "111"; "001" ]
  in
  let expected_s''' =
    expected_s'' @ [ "000"; "101"; "000"; "101"; "111"; "010"; "111"; "010" ]
  in
  let expected_sexp =
    expected_s'''
    @ [ "010"; "111"; "010"; "111"; "101"; "000"; "101"; "000";
        "001"; "111"; "001"; "111"; "110"; "000"; "110"; "000" ]
  in
  Testutil.check_seq "S''exp" (Tseq.of_strings expected_s'')
    (Ops.expand_with ~operators:[ Ops.Repeat; Ops.Complement ] ~n:2 s);
  Testutil.check_seq "S'''exp" (Tseq.of_strings expected_s''')
    (Ops.expand_with ~operators:[ Ops.Repeat; Ops.Complement; Ops.Shift ] ~n:2 s);
  Testutil.check_seq "Sexp" (Tseq.of_strings expected_sexp) (Ops.expand ~n:2 s)

let test_expand_length =
  Testutil.qcheck
    (QCheck.Test.make ~name:"expansion length is 8nL" ~count:100
       QCheck.(pair (Testutil.seq ~width:4 ~max_len:10) (int_range 1 6))
       (fun (s, n) ->
         Tseq.length (Ops.expand ~n s) = Ops.expanded_length ~n (Tseq.length s)))

let test_expand_prefix =
  Testutil.qcheck
    (QCheck.Test.make ~name:"S is a prefix of Sexp (all operator subsets)"
       ~count:100
       QCheck.(
         triple (Testutil.seq ~width:4 ~max_len:8) (int_range 1 4)
           (oneofl
              [ Ops.all_operators; [ Ops.Repeat ]; [ Ops.Complement ];
                [ Ops.Shift ]; [ Ops.Reverse ]; [ Ops.Repeat; Ops.Reverse ];
                [ Ops.Complement; Ops.Shift ] ]))
       (fun (s, n, operators) ->
         let exp = Ops.expand_with ~operators ~n s in
         Tseq.length exp >= Tseq.length s
         && Tseq.equal (Tseq.sub exp ~lo:0 ~hi:(Tseq.length s - 1)) s))

let test_expansion_factor =
  Testutil.qcheck
    (QCheck.Test.make ~name:"expansion_factor matches actual length" ~count:100
       QCheck.(
         triple (Testutil.seq ~width:3 ~max_len:6) (int_range 1 5)
           (oneofl
              [ Ops.all_operators; [ Ops.Repeat ]; [ Ops.Shift; Ops.Reverse ];
                [ Ops.Complement ] ]))
       (fun (s, n, operators) ->
         Tseq.length (Ops.expand_with ~operators ~n s)
         = Ops.expansion_factor ~operators ~n * Tseq.length s))

let test_expand_bad_n () =
  Alcotest.check_raises "n=0" (Invalid_argument "Ops.expand_with: n must be >= 1")
    (fun () -> ignore (Ops.expand ~n:0 (Tseq.of_strings [ "0" ])))

(* Section 3.1: the fault detected at u=9 gives window T0[6,9]. *)
let test_procedure2_walkthrough () =
  let table = Bist_fault.Fault_table.compute s27_universe s27_t0 in
  let at9 = Bist_fault.Fault_table.detected_at table 9 in
  Alcotest.(check int) "two faults at u=9" 2 (List.length at9);
  List.iter
    (fun id ->
      let fault = Universe.get s27_universe id in
      let rng = Bist_util.Rng.create 42 in
      let o = Procedure2.find ~rng ~n:1 ~t0:s27_t0 ~udet:9 s27 fault in
      Alcotest.(check int)
        (Printf.sprintf "ustart for %s" (Bist_fault.Fault.name s27 fault))
        6 o.Procedure2.ustart;
      Alcotest.(check bool) "omission shrank or kept" true
        (Tseq.length o.subsequence <= o.window_length))
    at9

(* Invariant: the returned subsequence's expansion detects the fault,
   for every detected fault of s27, both strategies. *)
let test_procedure2_detects_target () =
  let table = Bist_fault.Fault_table.compute s27_universe s27_t0 in
  List.iter
    (fun (strategy, label) ->
      Universe.iter
        (fun id fault ->
          match Bist_fault.Fault_table.udet table id with
          | None -> ()
          | Some udet ->
            let rng = Bist_util.Rng.create (17 + id) in
            let o =
              Procedure2.find ~strategy ~rng ~n:2 ~t0:s27_t0 ~udet s27 fault
            in
            let exp = Ops.expand ~n:2 o.Procedure2.subsequence in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s expansion detects" label
                 (Bist_fault.Fault.name s27 fault))
              true
              (Fsim.detects s27 fault exp))
        s27_universe)
    [ (Procedure2.paper_strategy, "paper"); (Procedure2.fast_strategy, "fast") ]

let test_procedure2_bad_udet () =
  let fault = Universe.get s27_universe 0 in
  let rng = Bist_util.Rng.create 1 in
  Alcotest.check_raises "udet range"
    (Invalid_argument "Procedure2.find: udet out of range") (fun () ->
      ignore (Procedure2.find ~rng ~n:1 ~t0:s27_t0 ~udet:99 s27 fault))

(* Procedure 1 must cover exactly F = faults detected by T0. *)
let check_covers universe ~n sequences targets =
  let remaining = Bitset.copy targets in
  List.iter
    (fun s ->
      let exp = Ops.expand ~n s in
      let o = Fsim.run ~targets:remaining universe exp in
      Bitset.diff_into remaining o.Fsim.detected)
    sequences;
  Bitset.is_empty remaining

let test_procedure1_covers () =
  let rng = Bist_util.Rng.create 7 in
  let result = Procedure1.run ~rng ~n:2 ~t0:s27_t0 s27_universe in
  Alcotest.(check bool) "expansions cover F" true
    (check_covers s27_universe ~n:2
       (Procedure1.sequences result)
       result.Procedure1.t0_detected);
  (* each selected sequence detected at least its seeding fault *)
  List.iter
    (fun (sel : Procedure1.selected) ->
      Alcotest.(check bool) "target newly covered" true
        (Bitset.mem sel.newly_detected sel.target_fault))
    result.selected

let test_procedure1_fault_orders () =
  List.iter
    (fun order ->
      let rng = Bist_util.Rng.create 7 in
      let result = Procedure1.run ~fault_order:order ~rng ~n:2 ~t0:s27_t0 s27_universe in
      Alcotest.(check bool) "covers F" true
        (check_covers s27_universe ~n:2
           (Procedure1.sequences result)
           result.Procedure1.t0_detected))
    [ `Max_udet; `Min_udet; `Random ]

let test_procedure1_teaching_circuits () =
  List.iter
    (fun circuit ->
      let universe = Universe.collapsed circuit in
      let rng = Bist_util.Rng.create 3 in
      let t0 =
        Tseq.random_binary rng
          ~width:(Bist_circuit.Netlist.num_inputs circuit)
          ~length:30
      in
      let rng = Bist_util.Rng.create 5 in
      let result = Procedure1.run ~rng ~n:2 ~t0 universe in
      Alcotest.(check bool)
        (Bist_circuit.Netlist.circuit_name circuit ^ " covered")
        true
        (check_covers universe ~n:2
           (Procedure1.sequences result)
           result.Procedure1.t0_detected))
    [ Bist_bench.Teaching.counter3 (); Bist_bench.Teaching.shift4 ();
      Bist_bench.Teaching.parity_fsm () ]

(* A fault table passed in is the one Procedure 1 would compute: the
   result is the same, and a table of another sequence is refused. *)
let test_procedure1_given_table () =
  let same name universe t0 =
    let run ?table () =
      Procedure1.run ?table ~rng:(Bist_util.Rng.create 7) ~n:4 ~t0 universe
    in
    let table = Bist_fault.Fault_table.compute universe t0 in
    Alcotest.(check bool) (name ^ ": same result") true (run ~table () = run ())
  in
  same "s27" s27_universe s27_t0;
  let x298 = (Option.get (Bist_bench.Registry.find "x298")).circuit () in
  let t0 =
    Tseq.random_binary (Bist_util.Rng.create 3)
      ~width:(Bist_circuit.Netlist.num_inputs x298) ~length:80
  in
  same "x298" (Universe.collapsed x298) t0;
  let other = Bist_fault.Fault_table.compute s27_universe (Tseq.sub s27_t0 ~lo:0 ~hi:4) in
  Alcotest.check_raises "table of another T0"
    (Invalid_argument "Procedure1.run: table was computed for another universe or T0")
    (fun () ->
      ignore
        (Procedure1.run ~table:other ~rng:(Bist_util.Rng.create 7) ~n:2 ~t0:s27_t0
           s27_universe))

(* Postprocess: never loses coverage, never grows the set. *)
let test_postprocess_preserves_coverage () =
  let rng = Bist_util.Rng.create 7 in
  let result = Procedure1.run ~rng ~n:2 ~t0:s27_t0 s27_universe in
  let seqs = Procedure1.sequences result in
  let targets = result.Procedure1.t0_detected in
  let post = Postprocess.run ~n:2 ~targets s27_universe seqs in
  Alcotest.(check bool) "still covers" true
    (check_covers s27_universe ~n:2 post.Postprocess.kept targets);
  Alcotest.(check bool) "did not grow" true
    (List.length post.kept <= List.length seqs);
  Alcotest.(check int) "dropped accounting"
    (List.length seqs - List.length post.kept)
    post.dropped

let test_postprocess_single_passes () =
  let rng = Bist_util.Rng.create 7 in
  let result = Procedure1.run ~rng ~n:2 ~t0:s27_t0 s27_universe in
  let seqs = Procedure1.sequences result in
  let targets = result.Procedure1.t0_detected in
  List.iter
    (fun pass ->
      let post = Postprocess.run ~passes:[ pass ] ~n:2 ~targets s27_universe seqs in
      Alcotest.(check bool) "single pass preserves coverage" true
        (check_covers s27_universe ~n:2 post.Postprocess.kept targets))
    Postprocess.
      [ Increasing_length; Decreasing_length; Reverse_generation;
        Decreasing_prev_detections ]

let test_postprocess_drops_redundant () =
  (* A duplicated sequence list must lose the duplicates. *)
  let rng = Bist_util.Rng.create 7 in
  let result = Procedure1.run ~rng ~n:2 ~t0:s27_t0 s27_universe in
  let seqs = Procedure1.sequences result in
  let doubled = seqs @ seqs in
  let targets = result.Procedure1.t0_detected in
  let post = Postprocess.run ~n:2 ~targets s27_universe doubled in
  Alcotest.(check bool) "duplicates dropped" true
    (List.length post.Postprocess.kept <= List.length seqs)

(* The memo against the memo-free loop it replaced (Postprocess_oracle):
   on the fixed 128-vector random T0 of the Packed_sim guarantee test,
   Procedure 1's output at n = 2 under every single pass and the default
   four, and at n = 8 under the default four (single passes there too
   would add about 1.5 s), each with Procedure 1's seed; the default
   four also without it. (Without a seed, a single pass meets every
   pair for the first time, so it simulates exactly what the oracle
   does.) *)
let random_t0 circuit =
  Tseq.random_binary (Bist_util.Rng.create 128)
    ~width:(Bist_circuit.Netlist.num_inputs circuit) ~length:128

(* kept and dropped must equal the oracle's, and the memo can only
   simulate less: with [known], less than without it when [unseeded]
   runs too, else less than the oracle. *)
let check_against_oracle what ~unseeded ~passes ~n ~targets ~known universe seqs =
  let want = Postprocess_oracle.run ~passes ~n ~targets universe seqs in
  let strings l = List.map (fun s -> String.concat "," (Tseq.to_strings s)) l in
  let check what ?known bound =
    let got = Postprocess.run ~passes ?known ~n ~targets universe seqs in
    Alcotest.(check (list string)) (what ^ ": kept") (strings want.Postprocess.kept)
      (strings got.Postprocess.kept);
    Alcotest.(check int) (what ^ ": dropped") want.dropped got.dropped;
    if got.simulated_time_units > bound then
      Alcotest.failf "%s: %d time units, more than %d" what got.simulated_time_units bound;
    got.simulated_time_units
  in
  let bound =
    if unseeded then check what want.simulated_time_units else want.simulated_time_units
  in
  ignore (check (what ^ " seeded") ~known bound : int)

let test_postprocess_memo_oracle () =
  List.iter
    (fun (entry : Bist_bench.Registry.entry) ->
      if not (List.mem entry.name [ "x5378"; "x35932" ]) then begin
        let circuit = entry.circuit () in
        let universe = Universe.collapsed circuit in
        let t0 = random_t0 circuit in
        List.iter
          (fun n ->
            let r =
              Procedure1.run ~strategy:Procedure2.fast_strategy
                ~rng:(Bist_util.Rng.create 7) ~n ~t0 universe
            in
            let seqs = Procedure1.sequences r and targets = r.Procedure1.t0_detected in
            List.iter
              (fun passes ->
                let what =
                  Printf.sprintf "%s n=%d %s" entry.name n
                    (String.concat "+" (List.map Postprocess.pass_name passes))
                in
                check_against_oracle what ~unseeded:(List.length passes > 1) ~passes ~n
                  ~targets ~known:(Procedure1.known r) universe seqs)
              (if n = 2 then
                 List.map (fun p -> [ p ]) Postprocess.default_passes
                 @ [ Postprocess.default_passes ]
               else [ Postprocess.default_passes ]))
          [ 2; 8 ]
      end)
    (Bist_bench.Registry.all ())

(* Any (met, det) pairs that simulation produced, over sequence lists
   with duplicates and any pass list, give the oracle's result. *)
let test_postprocess_memo_random =
  let gen =
    QCheck.Gen.(
      triple (int_range 0 500) (int_range 0 1_000_000) (int_range 1 3))
  in
  Testutil.qcheck
    (QCheck.Test.make ~name:"postprocess memo = oracle (random circuits, duplicates)"
       ~count:40
       (QCheck.make
          ~print:(fun (c, s, n) -> Printf.sprintf "circuit %d, seed %d, n %d" c s n)
          gen)
       (fun (cseed, seed, n) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let size = Universe.size universe in
         let rng = Bist_util.Rng.create seed in
         let width = Bist_circuit.Netlist.num_inputs circuit in
         let distinct =
           Array.init (1 + Bist_util.Rng.int rng 4) (fun _ ->
               Tseq.random_binary rng ~width ~length:(1 + Bist_util.Rng.int rng 5))
         in
         let seqs =
           List.init (2 + Bist_util.Rng.int rng 6) (fun _ -> Bist_util.Rng.choose rng distinct)
         in
         let subset () =
           let s = Bitset.create size in
           for id = 0 to size - 1 do
             if Bist_util.Rng.int rng 3 > 0 then Bitset.add s id
           done;
           s
         in
         let targets = subset () in
         let known =
           List.map
             (fun seq ->
               let met = subset () in
               let exp = Ops.expand ~n seq in
               (met, (Fsim.run ~targets:met universe exp).Fsim.detected))
             seqs
         in
         let passes =
           List.init (Bist_util.Rng.int rng 6) (fun _ ->
               Bist_util.Rng.choose rng (Array.of_list Postprocess.default_passes))
         in
         check_against_oracle "random" ~unseeded:true ~passes ~n ~targets ~known universe
           seqs;
         true))

let test_postprocess_known_invalid () =
  let r = Procedure1.run ~rng:(Bist_util.Rng.create 7) ~n:2 ~t0:s27_t0 s27_universe in
  let seqs = Procedure1.sequences r and targets = r.Procedure1.t0_detected in
  let known = Procedure1.known r in
  let size = Universe.size s27_universe in
  let raises label msg known =
    Alcotest.check_raises label (Invalid_argument msg) (fun () ->
        ignore (Postprocess.run ~known ~n:2 ~targets s27_universe seqs))
  in
  raises "one pair short" "Postprocess.run: known has another length than the sequences"
    (List.tl known);
  let first_met met = List.mapi (fun i (m, det) -> ((if i = 0 then met else m), det)) known in
  raises "wrong capacity" "Postprocess.run: known set over another universe"
    (first_met (Bitset.create (size + 1)));
  raises "det outside met" "Postprocess.run: known detections outside their met set"
    (first_met (Bitset.create size))

(* Scheme end to end. *)
let test_scheme_s27 () =
  let run = Scheme.execute ~seed:7 ~n:2 ~t0:s27_t0 s27_universe in
  Alcotest.(check bool) "coverage verified" true run.Scheme.coverage_verified;
  Alcotest.(check int) "total faults" 32 run.total_faults;
  Alcotest.(check int) "detected by T0" 32 run.detected_by_t0;
  Alcotest.(check int) "t0 length" 10 run.t0_length;
  Alcotest.(check bool) "after <= before (count)" true
    (run.after.count <= run.before.count);
  Alcotest.(check bool) "after <= before (total)" true
    (run.after.total_length <= run.before.total_length);
  Alcotest.(check int) "expanded total = 16 * tot"
    (16 * run.after.total_length)
    run.expanded_total_length

let test_scheme_deterministic () =
  let a = Scheme.execute ~seed:7 ~n:2 ~t0:s27_t0 s27_universe in
  let b = Scheme.execute ~seed:7 ~n:2 ~t0:s27_t0 s27_universe in
  Alcotest.(check int) "same |S|" a.Scheme.after.count b.Scheme.after.count;
  Alcotest.(check bool) "same sequences" true
    (List.for_all2 Tseq.equal a.sequences b.sequences)

let test_best_n () =
  let best = Scheme.best_n ~seed:7 ~ns:[ 2; 4 ] ~t0:s27_t0 s27_universe in
  let r2 = Scheme.execute ~seed:7 ~n:2 ~t0:s27_t0 s27_universe in
  let r4 = Scheme.execute ~seed:7 ~n:4 ~t0:s27_t0 s27_universe in
  let min_max = min r2.Scheme.after.max_length r4.Scheme.after.max_length in
  Alcotest.(check int) "best has minimal max length" min_max
    best.Scheme.after.max_length

(* best_n simulates T0 once and hands the table to every n: it must pick
   the run that folding Scheme.better over separate executes picks, and
   execute refuses a table of another T0 or universe. *)
let test_best_n_one_t0 () =
  let same what universe t0 =
    let best = Scheme.best_n ~seed:7 ~t0 universe in
    let folded =
      match List.map (fun n -> Scheme.execute ~seed:7 ~n ~t0 universe) [ 2; 4; 8; 16 ] with
      | first :: rest -> List.fold_left Scheme.better first rest
      | [] -> assert false
    in
    let strings (r : Scheme.run) =
      List.map (fun s -> String.concat "," (Tseq.to_strings s)) r.sequences
    in
    Alcotest.(check int) (what ^ ": n") folded.Scheme.n best.Scheme.n;
    Alcotest.(check bool) (what ^ ": summaries") true
      (folded.before = best.before && folded.after = best.after);
    Alcotest.(check (list string)) (what ^ ": sequences") (strings folded) (strings best)
  in
  same "s27" s27_universe s27_t0;
  let x298 = (Option.get (Bist_bench.Registry.find "x298")).circuit () in
  same "x298" (Universe.collapsed x298) (random_t0 x298);
  let refused what table =
    Alcotest.check_raises what
      (Invalid_argument "Procedure1.run: table was computed for another universe or T0")
      (fun () -> ignore (Scheme.execute ~table ~seed:7 ~n:2 ~t0:s27_t0 s27_universe))
  in
  refused "table of another T0"
    (Scheme.simulate_t0 s27_universe (Tseq.sub s27_t0 ~lo:0 ~hi:4));
  refused "table of another universe" (Scheme.simulate_t0 (Universe.collapsed s27) s27_t0)

let test_better_ignores_time () =
  let r2 = Scheme.execute ~seed:7 ~n:2 ~t0:s27_t0 s27_universe in
  let with_ n seconds =
    { r2 with Scheme.n; proc1_seconds = seconds; compaction_seconds = seconds }
  in
  let n_of a b = (Scheme.better a b).Scheme.n in
  let fast4 = with_ 4 0.1 and slow4 = with_ 4 9.0 in
  let fast8 = with_ 8 0.1 and slow8 = with_ 8 9.0 in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int) "equal lengths: smaller n" 4 (n_of a b);
      Alcotest.(check int) "either order" 4 (n_of b a))
    [ (fast4, slow8); (slow4, fast8) ];
  let shorter = { slow8 with after = { r2.after with max_length = 0 } } in
  Alcotest.(check int) "length still comes first" 8 (n_of fast4 shorter);
  let a = Scheme.best_n ~seed:7 ~t0:s27_t0 s27_universe in
  let b = Scheme.best_n ~seed:7 ~t0:s27_t0 s27_universe in
  Alcotest.(check int) "best_n repeats its n" a.Scheme.n b.Scheme.n

(* The paper's guarantee, re-checked by a kernel [Scheme.execute] does
   not run: on a fixed 128-vector random T0, the test-local Packed_sim
   group loop must find that T0 detects exactly [detected_by_t0] faults
   and that the kept expansions together detect every one of them.
   [coverage_verified] comes from the production kernel itself, so it
   cannot see a change to the fault-free machine both sides read. *)
let test_scheme_guarantee_packed () =
  List.iter
    (fun (entry : Bist_bench.Registry.entry) ->
      if not (List.mem entry.name [ "x5378"; "x35932" ]) then begin
        let circuit = entry.circuit () in
        let universe = Universe.collapsed circuit in
        let rng = Bist_util.Rng.create 128 in
        let t0 =
          Tseq.random_binary rng ~width:(Bist_circuit.Netlist.num_inputs circuit)
            ~length:128
        in
        let run = Scheme.execute ~seed:7 ~n:4 ~t0 universe in
        let det = Testutil.packed_det_times universe t0 in
        let f = List.filter (fun id -> det.(id) >= 0) (List.init (Array.length det) Fun.id) in
        Alcotest.(check int) (entry.name ^ ": T0 detects |F|") (List.length f)
          run.Scheme.detected_by_t0;
        let missed =
          List.fold_left
            (fun remaining seq ->
              let d =
                Testutil.packed_det_times ~ids:(Array.of_list remaining) universe
                  (Ops.expand ~n:4 seq)
              in
              List.filter (fun id -> d.(id) < 0) remaining)
            f run.sequences
        in
        Alcotest.(check (list string))
          (entry.name ^ ": expansions detect F")
          []
          (List.map (fun id -> Bist_fault.Fault.name circuit (Universe.get universe id)) missed)
      end)
    (Bist_bench.Registry.all ())

(* Oracle (d): recurring blocks are really jumped in production. On
   x526 at n = 16 (the fixed 128-vector random T0 above, fast strategy),
   the expansions' groups jump past repeated blocks and their traces
   copy rows, and the guarantee still holds. *)
let test_recurring_blocks_skipped () =
  let circuit = (Option.get (Bist_bench.Registry.find "x526")).circuit () in
  let universe = Universe.collapsed circuit in
  let t0 =
    Tseq.random_binary (Bist_util.Rng.create 128)
      ~width:(Bist_circuit.Netlist.num_inputs circuit) ~length:128
  in
  let obs = Bist_obs.Obs.create () in
  let run =
    Scheme.execute ~obs ~strategy:Procedure2.fast_strategy ~seed:7 ~n:16 ~t0 universe
  in
  let counters = Bist_obs.Metrics.counters (Option.get (Bist_obs.Obs.metrics obs)) in
  let count name = Option.value (List.assoc_opt name counters) ~default:0 in
  Alcotest.(check bool) "coverage verified" true run.Scheme.coverage_verified;
  List.iter
    (fun name ->
      Alcotest.(check bool) (Printf.sprintf "%s = %d > 0" name (count name)) true
        (count name > 0))
    [ "fsim.skipped_steps"; "fsim.trace_copies" ]

let test_scheme_operator_ablation () =
  (* The scheme stays sound with restricted operator sets: whatever the
     pipeline, coverage of F must be preserved. *)
  List.iter
    (fun operators ->
      let run =
        Scheme.execute ~operators ~seed:7 ~n:2 ~t0:s27_t0 s27_universe
      in
      Alcotest.(check bool) "coverage verified" true run.Scheme.coverage_verified)
    [ [ Ops.Repeat ]; [ Ops.Repeat; Ops.Complement ];
      [ Ops.Repeat; Ops.Complement; Ops.Shift ]; [ Ops.Reverse ] ]

let suite =
  [
    Alcotest.test_case "paper Table 1" `Quick test_table1;
    test_expand_length;
    test_expand_prefix;
    test_expansion_factor;
    Alcotest.test_case "expand rejects n=0" `Quick test_expand_bad_n;
    Alcotest.test_case "paper 3.1 window [6,9]" `Quick test_procedure2_walkthrough;
    Alcotest.test_case "procedure2 detects target (all faults)" `Slow
      test_procedure2_detects_target;
    Alcotest.test_case "procedure2 bad udet" `Quick test_procedure2_bad_udet;
    Alcotest.test_case "procedure1 covers F" `Quick test_procedure1_covers;
    Alcotest.test_case "procedure1 fault orders" `Quick test_procedure1_fault_orders;
    Alcotest.test_case "procedure1 given table" `Quick test_procedure1_given_table;
    Alcotest.test_case "procedure1 teaching circuits" `Quick
      test_procedure1_teaching_circuits;
    Alcotest.test_case "postprocess preserves coverage" `Quick
      test_postprocess_preserves_coverage;
    Alcotest.test_case "postprocess single passes" `Quick test_postprocess_single_passes;
    Alcotest.test_case "postprocess drops duplicates" `Quick
      test_postprocess_drops_redundant;
    Alcotest.test_case "postprocess memo = oracle (registry)" `Quick
      test_postprocess_memo_oracle;
    test_postprocess_memo_random;
    Alcotest.test_case "postprocess known rejected" `Quick
      test_postprocess_known_invalid;
    Alcotest.test_case "scheme on s27" `Quick test_scheme_s27;
    Alcotest.test_case "scheme deterministic" `Quick test_scheme_deterministic;
    Alcotest.test_case "scheme guarantee re-checked by Packed_sim" `Quick
      test_scheme_guarantee_packed;
    Alcotest.test_case "best n rule" `Quick test_best_n;
    Alcotest.test_case "best n ignores run time" `Quick test_better_ignores_time;
    Alcotest.test_case "best n simulates T0 once" `Quick test_best_n_one_t0;
    Alcotest.test_case "operator ablation stays sound" `Quick
      test_scheme_operator_ablation;
    Alcotest.test_case "recurring blocks are skipped (x526, n = 16)" `Quick
      test_recurring_blocks_skipped;
  ]
