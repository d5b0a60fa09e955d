(* Benchmark harness.

   Part 1 (Bechamel): one micro-benchmark per paper table plus the
   ablation benches called out in DESIGN.md, measured on fixed fast
   workloads so the timings are comparable run to run.

   Part 2 (tables): regenerate Tables 3, 4 and 5, the measured-vs-paper
   comparison, and Figure 1 by running the full experiment pipeline over
   the evaluation suite. `--fast` restricts the suite to the circuits up
   to x1488; `--micro-only` / `--tables-only` select one part.

   Part 3 (`--json PATH`): the recorded trajectory. Wall-times the
   fault-table workloads sequentially and on a `--jobs`-wide domain pool,
   verifies the two tables are bit-identical, and appends one run record
   to the JSON array at PATH (see BENCH_results.json at the repo root) so
   successive PRs accumulate a perf baseline to regress against. *)

open Bechamel
open Toolkit

(* Fixed workloads, built once. *)

let s27 = Bist_bench.S27.circuit ()
let s27_universe = Bist_fault.Universe.collapsed s27
let s27_t0 = Bist_bench.S27.t0 ()
let table1_s = Bist_bench.S27.table1_s ()

let x298 = (Option.get (Bist_bench.Registry.find "x298")).circuit ()
let x298_universe = Bist_fault.Universe.collapsed x298

let x298_t0 =
  lazy
    (let rng = Bist_util.Rng.create 99 in
     let t0, _ = Bist_tgen.Engine.generate ~rng x298_universe in
     fst (Bist_tgen.Compaction.compact ~max_trials:150 x298_universe t0))

(* Table 1: the expansion operators. *)
let bench_table1 =
  Test.make ~name:"table1_expand"
    (Staged.stage (fun () -> ignore (Bist_core.Ops.expand ~n:2 table1_s)))

(* Table 2: fault simulation of T0 with detection times. *)
let bench_table2 =
  Test.make ~name:"table2_fault_table"
    (Staged.stage (fun () ->
         ignore (Bist_fault.Fault_table.compute s27_universe s27_t0)))

(* Table 3: the full per-circuit pipeline (selection + compaction). *)
let bench_table3 =
  Test.make ~name:"table3_pipeline_x298"
    (Staged.stage (fun () ->
         ignore
           (Bist_core.Scheme.execute ~verify:false ~seed:5 ~n:8
              ~t0:(Lazy.force x298_t0) x298_universe)))

(* Table 4's two measured phases, separately. *)
let bench_table4_proc1 =
  Test.make ~name:"table4_procedure1_x298"
    (Staged.stage (fun () ->
         let rng = Bist_util.Rng.create 5 in
         ignore
           (Bist_core.Procedure1.run ~rng ~n:8 ~t0:(Lazy.force x298_t0)
              x298_universe)))

let bench_table4_comp =
  let prepared =
    lazy
      (let rng = Bist_util.Rng.create 5 in
       let r =
         Bist_core.Procedure1.run ~rng ~n:8 ~t0:(Lazy.force x298_t0)
           x298_universe
       in
       (Bist_core.Procedure1.sequences r, r.Bist_core.Procedure1.t0_detected))
  in
  Test.make ~name:"table4_compaction_x298"
    (Staged.stage (fun () ->
         let seqs, targets = Lazy.force prepared in
         ignore (Bist_core.Postprocess.run ~n:8 ~targets x298_universe seqs)))

(* Table 5's applied-length accounting via the hardware session. *)
let bench_table5_session =
  let set = lazy (Bist_core.Scheme.execute ~seed:7 ~n:2 ~t0:s27_t0 s27_universe) in
  Test.make ~name:"table5_hw_session_s27"
    (Staged.stage (fun () ->
         let run = Lazy.force set in
         ignore (Bist_hw.Session.run_exn ~n:2 s27 run.Bist_core.Scheme.sequences)))

(* Ablations from DESIGN.md section 5. *)

let bench_ablation_fault_order order name =
  Test.make ~name
    (Staged.stage (fun () ->
         let rng = Bist_util.Rng.create 5 in
         ignore
           (Bist_core.Procedure1.run ~fault_order:order ~rng ~n:4
              ~t0:(Lazy.force x298_t0) x298_universe)))

let bench_ablation_omission =
  let strategy =
    { Bist_core.Procedure2.paper_strategy with
      Bist_core.Procedure2.omission = `None }
  in
  Test.make ~name:"ablation_no_omission"
    (Staged.stage (fun () ->
         let rng = Bist_util.Rng.create 5 in
         ignore
           (Bist_core.Procedure1.run ~strategy ~rng ~n:4
              ~t0:(Lazy.force x298_t0) x298_universe)))

let bench_ablation_operators =
  Test.make ~name:"ablation_repeat_only"
    (Staged.stage (fun () ->
         let rng = Bist_util.Rng.create 5 in
         ignore
           (Bist_core.Procedure1.run ~operators:[ Bist_core.Ops.Repeat ] ~rng
              ~n:4 ~t0:(Lazy.force x298_t0) x298_universe)))

let bench_fsim_parallel =
  Test.make ~name:"fsim_parallel_x298"
    (Staged.stage (fun () ->
         ignore (Bist_fault.Fsim.run x298_universe (Lazy.force x298_t0))))

let bench_fsim_serial =
  Test.make ~name:"fsim_serial_s27"
    (Staged.stage (fun () ->
         Bist_fault.Universe.iter
           (fun _ fault -> ignore (Bist_fault.Fsim.detects s27 fault s27_t0))
           s27_universe))

let all_micro =
  [
    bench_table1; bench_table2; bench_table3; bench_table4_proc1;
    bench_table4_comp; bench_table5_session;
    bench_ablation_fault_order `Max_udet "ablation_order_max_udet";
    bench_ablation_fault_order `Min_udet "ablation_order_min_udet";
    bench_ablation_fault_order `Random "ablation_order_random";
    bench_ablation_omission; bench_ablation_operators; bench_fsim_parallel;
    bench_fsim_serial;
  ]

let run_micro () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.6) () in
  print_endline "== Bechamel micro-benchmarks (one per table + ablations) ==";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-32s %14.0f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-32s (no estimate)\n%!" name)
        ols)
    all_micro

(* Ablation quality: the micro-benchmarks above time the variants; the
   harness library computes what each variant costs in result quality. *)
let run_ablation_quality () =
  let rows = Bist_harness.Ablation.run ~seed:5 ~n:4 ~t0:(Lazy.force x298_t0) x298_universe in
  print_endline "== Ablation quality on x298 (n = 4) ==";
  print_string (Bist_harness.Ablation.render rows)

let run_tables ~fast () =
  let circuits =
    if fast then
      Some
        [ "x298"; "x344"; "x382"; "x400"; "x526"; "x641"; "x820"; "x1196";
          "x1423"; "x1488" ]
    else None
  in
  let results =
    Bist_harness.Experiment.run_suite ?circuits
      ~progress:(fun line -> Printf.eprintf "%s\n%!" line)
      ()
  in
  print_newline ();
  print_string (Bist_harness.Tables.table3 results);
  print_newline ();
  print_string (Bist_harness.Tables.table4 results);
  print_newline ();
  print_string (Bist_harness.Tables.table5 results);
  print_newline ();
  print_string (Bist_harness.Tables.comparison results);
  print_newline ();
  print_string (Bist_harness.Figure1.render_s27 ())

(* Part 3: the recorded trajectory (`--json PATH`). *)

module Pool = Bist_parallel.Pool
module Fault_table = Bist_fault.Fault_table
module Universe = Bist_fault.Universe

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* Best of [repeats] wall times: the workloads are deterministic, so the
   minimum is the least-noisy estimate on a shared host. *)
let best_of ~repeats f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to repeats do
    let t, r = wall f in
    if t < !best then best := t;
    result := Some r
  done;
  (!best, Option.get !result)

let tables_identical a b =
  let ua = Fault_table.universe a in
  Bist_util.Bitset.equal (Fault_table.detected a) (Fault_table.detected b)
  && Array.for_all
       (fun id -> Fault_table.udet a id = Fault_table.udet b id)
       (Array.init (Universe.size ua) (fun i -> i))

type json_record = {
  bench : string;
  circuit : string;
  faults : int;
  seq_len : int;
  seconds_seq : float;
  seconds_par : float;
  seconds_instrumented : float;
      (** Wall time of the separate pass the [phases] totals come from.
          That pass runs with a live Obs sink, so its span totals
          (including instrumentation overhead) legitimately exceed the
          null-sink [seconds_seq]/[seconds_par] timings — recording its
          own wall clock here keeps the two scales from being read
          against each other. *)
  identical : bool;
  phases : (string * float) list;  (** Per-phase seconds from the instrumented pass. *)
}

let json_workloads () =
  let random_seq circuit len =
    let rng = Bist_util.Rng.create 7 in
    Bist_logic.Tseq.random_binary rng
      ~width:(Bist_circuit.Netlist.num_inputs circuit)
      ~length:len
  in
  let registry name len =
    let circuit = (Option.get (Bist_bench.Registry.find name)).circuit () in
    (Printf.sprintf "fault_table_%s" name, name,
     Universe.collapsed circuit, random_seq circuit len)
  in
  [
    ("fault_table_s27", "s27", s27_universe, s27_t0);
    registry "x298" 256;
    registry "x1488" 256;
    registry "x5378" 256;
  ]

let run_json ?(sat = true) ~jobs ~trace ~stats path =
  let jobs = if jobs = 0 then Pool.default_jobs () else max 1 jobs in
  let pool = if jobs > 1 then Some (Pool.create ~jobs ()) else None in
  let sequential = Pool.create ~jobs:1 () in
  (* One shared sink for the instrumented passes; the timed passes below
     run with the null sink so the recorded seconds stay comparable with
     the pre-obs trajectory. *)
  let obs = Bist_obs.Obs.create ~trace:(trace <> None) () in
  let records =
    List.map
      (fun (bench, circuit, universe, seq) ->
        let repeats = 3 in
        let seconds_seq, table_seq =
          best_of ~repeats (fun () ->
              Fault_table.compute ~pool:sequential universe seq)
        in
        let seconds_par, table_par =
          match pool with
          | Some p ->
            best_of ~repeats (fun () -> Fault_table.compute ~pool:p universe seq)
          | None -> (seconds_seq, table_seq)
        in
        (* Phase-resolution pass: one extra instrumented run per workload
           (untimed above). The shared sink accumulates across workloads,
           so this record's phases are the delta of the cumulative span
           totals around its run. *)
        let seconds_instrumented, phases =
          let before = Bist_obs.Obs.span_seconds obs in
          let seconds_instrumented, () =
            wall (fun () ->
                ignore
                  (Bist_obs.Obs.span obs ~cat:"bench" bench (fun () ->
                       Fault_table.compute ~obs ?pool universe seq)))
          in
          ( seconds_instrumented,
            List.filter_map
              (fun (name, total) ->
                let prior =
                  Option.value ~default:0.0 (List.assoc_opt name before)
                in
                let d = total -. prior in
                if d > 0.0 then Some (name, d) else None)
              (Bist_obs.Obs.span_seconds obs) )
        in
        let r =
          {
            bench; circuit;
            faults = Universe.size universe;
            seq_len = Bist_logic.Tseq.length seq;
            seconds_seq; seconds_par; seconds_instrumented;
            identical = tables_identical table_seq table_par;
            phases;
          }
        in
        Printf.printf
          "  %-24s %5d faults  seq %8.4fs  jobs=%d %8.4fs  speedup %.2fx  %s\n%!"
          r.bench r.faults r.seconds_seq jobs r.seconds_par
          (r.seconds_seq /. r.seconds_par)
          (if r.identical then "identical" else "MISMATCH");
        r)
      (json_workloads ())
  in
  (* SAT workload: the exact untestability prescreen (structural prover,
     simulation refutation, bounded CDCL queries) on x298 at a small
     frame bound. [identical] here checks determinism — two runs must
     partition the universe the same way — and [phases] carries the
     per-phase solve seconds, including one span per SAT query. *)
  let records =
    if not sat then records
    else begin
    let module Untestable = Bist_analyze.Untestable in
    let config = { Untestable.default_exact_config with Untestable.frames = 4 } in
    let run ?obs () = Untestable.exact_prescreen ?obs ~config x298_universe in
    let seconds_a, a = wall (fun () -> run ()) in
    let seconds_b, b = wall (fun () -> run ()) in
    let identical =
      Bist_util.Bitset.equal a.Untestable.proved b.Untestable.proved
      && Bist_util.Bitset.equal a.Untestable.refuted b.Untestable.refuted
      && Bist_util.Bitset.equal a.Untestable.unknown b.Untestable.unknown
    in
    let seconds_instrumented, phases =
      let before = Bist_obs.Obs.span_seconds obs in
      let seconds_instrumented, () =
        wall (fun () ->
            ignore
              (Bist_obs.Obs.span obs ~cat:"bench" "sat_exact_prescreen_x298"
                 (fun () -> run ~obs ())))
      in
      ( seconds_instrumented,
        List.filter_map
          (fun (name, total) ->
            let prior = Option.value ~default:0.0 (List.assoc_opt name before) in
            let d = total -. prior in
            if d > 0.0 then Some (name, d) else None)
          (Bist_obs.Obs.span_seconds obs) )
    in
    let r =
      {
        bench = "sat_exact_prescreen_x298"; circuit = "x298";
        faults = Universe.size x298_universe;
        seq_len = config.Untestable.frames;
        seconds_seq = seconds_a; seconds_par = seconds_b;
        seconds_instrumented; identical; phases;
      }
    in
    Printf.printf
      "  %-24s %5d faults  run1 %8.4fs  run2 %8.4fs  %s\n%!"
      r.bench r.faults seconds_a seconds_b
      (if identical then "identical" else "MISMATCH");
    records @ [ r ]
    end
  in
  (match trace with
  | Some tpath ->
    Bist_obs.Obs.write_trace obs tpath;
    Printf.eprintf "wrote %s (%d trace events)\n" tpath
      (Bist_obs.Obs.trace_events obs)
  | None -> ());
  if stats then prerr_string (Bist_obs.Obs.summary obs);
  let record_json =
    let esc = Bist_obs.Trace.escape_json in
    let benches =
      records
      |> List.map (fun r ->
             let phases =
               r.phases
               |> List.map (fun (name, s) ->
                      Printf.sprintf "\"%s\": %.6f" (esc name) s)
               |> String.concat ", "
             in
             Printf.sprintf
               "    { \"bench\": \"%s\", \"circuit\": \"%s\", \"faults\": %d, \
                \"seq_len\": %d, \"seconds_seq\": %.6f, \"seconds_par\": %.6f, \
                \"speedup\": %.4f, \"seconds_instrumented\": %.6f, \
                \"identical\": %b,\n\
               \      \"phases\": { %s } }"
               (esc r.bench) (esc r.circuit) r.faults r.seq_len r.seconds_seq
               r.seconds_par
               (r.seconds_seq /. r.seconds_par) r.seconds_instrumented
               r.identical phases)
      |> String.concat ",\n"
    in
    Printf.sprintf
      "  { \"schema\": \"bist-bench/3\",\n\
      \    \"unix_time\": %.0f,\n\
      \    \"cores\": %d,\n\
      \    \"jobs\": %d,\n\
      \    \"benches\": [\n%s\n    ] }"
      (Unix.time ())
      (Domain.recommended_domain_count ())
      jobs benches
  in
  (* Append into the JSON array at [path] textually, so the trajectory
     file stays a plain, diff-friendly list of run records. The existing
     file must parse as a JSON array before we touch it — a truncated or
     hand-mangled trajectory is refused with its parse error instead of
     being silently wrapped in fresh brackets — and the result goes
     through the atomic temp-file + rename write, so a run killed
     mid-append can never leave the trajectory truncated. *)
  let previous =
    if Sys.file_exists path then begin
      let s =
        match Bist_obs.Json_check.parse_file path with
        | Ok (Bist_obs.Json_check.List _) ->
          Bist_resilience.Atomic_io.read_file ~path
        | Ok _ ->
          Printf.eprintf "error: %s: not a JSON array; refusing to append\n"
            path;
          exit 2
        | Error message ->
          Printf.eprintf
            "error: %s: %s — fix or remove the file before appending\n" path
            message;
          exit 2
      in
      let s = String.trim s in
      if s = "" || s = "[]" then None
      else Some (String.trim (String.sub s 1 (String.length s - 2)))
    end
    else None
  in
  let body =
    match previous with
    | None -> record_json
    | Some old -> old ^ ",\n" ^ record_json
  in
  Bist_resilience.Atomic_io.write_file ~path
    (Printf.sprintf "[\n%s\n]\n" body);
  Printf.printf "appended run record (%d benches) to %s\n" (List.length records) path;
  if List.exists (fun r -> not r.identical) records then begin
    prerr_endline "error: parallel fault table differs from sequential";
    exit 1
  end

(* `--perf-smoke`: the CI perf gate. Appends a fresh record (fault-table
   workloads only, jobs>=2) to the trajectory, then walks the whole file:

   - any record anywhere with `identical: false` fails the gate;
   - on a multi-core host, the fresh record's speedup on the gated
     x1488/x5378-class benches must not fall more than 20% below the
     best multi-core speedup ever recorded for that bench;
   - on a single-core host the speedup assertion is vacuous (sharding is
     crossover-suppressed, so speedup hovers at 1.0) and is skipped with
     a warning. *)

module Json = Bist_obs.Json_check

let gated_benches = [ "fault_table_x1488"; "fault_table_x5378" ]

let perf_smoke ~jobs path =
  let jobs = if jobs = 0 then 2 else max 2 jobs in
  run_json ~sat:false ~jobs ~trace:None ~stats:false path;
  let records =
    match Json.parse_file path with
    | Ok (Json.List l) -> l
    | Ok _ ->
      Printf.eprintf "perf-smoke: %s is not a JSON array\n" path;
      exit 2
    | Error m ->
      Printf.eprintf "perf-smoke: %s: %s\n" path m;
      exit 2
  in
  let number = function Some (Json.Number f) -> Some f | _ -> None in
  let string_ = function Some (Json.String s) -> Some s | _ -> None in
  let failed = ref false in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "perf-smoke: FAIL: %s\n" m;
        failed := true)
      fmt
  in
  (* 1. bit-identity must hold in every record of the trajectory. *)
  List.iteri
    (fun i record ->
      match Json.member "benches" record with
      | Some (Json.List benches) ->
        List.iter
          (fun b ->
            match (Json.member "identical" b, string_ (Json.member "bench" b)) with
            | Some (Json.Bool false), name ->
              fail "record %d bench %s has identical=false" i
                (Option.value name ~default:"?")
            | _ -> ())
          benches
      | _ -> ())
    records;
  (* 2. speedup regression against the best multi-core history. *)
  let current = List.nth records (List.length records - 1) in
  let cores =
    int_of_float (Option.value ~default:1.0 (number (Json.member "cores" current)))
  in
  let speedups_of record bench_name =
    match
      ( number (Json.member "jobs" record),
        Json.member "benches" record )
    with
    | Some j, Some (Json.List benches) when j >= 2.0 ->
      List.filter_map
        (fun b ->
          if string_ (Json.member "bench" b) = Some bench_name then
            number (Json.member "speedup" b)
          else None)
        benches
    | _ -> []
  in
  if cores <= 1 then
    Printf.eprintf
      "perf-smoke: warning: cores=1 — sharding is crossover-suppressed, \
       skipping the speedup assertion\n"
  else
    List.iter
      (fun bench_name ->
        let history =
          List.concat_map (fun r -> speedups_of r bench_name) records
        in
        let current_speedup = speedups_of current bench_name in
        match (history, current_speedup) with
        | [], _ | _, [] -> ()
        | _, now :: _ ->
          let best = List.fold_left max neg_infinity history in
          if now < 0.8 *. best then
            fail "%s speedup %.2fx regressed >20%% below best recorded %.2fx"
              bench_name now best)
      gated_benches;
  if !failed then exit 1;
  print_endline "perf-smoke: PASS"

let () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  let value_of flag =
    let rec go = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let jobs =
    match value_of "--jobs" with
    | Some v ->
      (match int_of_string_opt v with
      | Some j -> Bist_parallel.Pool.validate_jobs ~source:"--jobs" j
      | None -> Printf.eprintf "error: --jobs expects an integer\n"; exit 2)
    | None -> 0
  in
  if has "--perf-smoke" then
    perf_smoke ~jobs
      (Option.value (value_of "--json") ~default:"BENCH_results.json")
  else
  match value_of "--json" with
  | Some path ->
    run_json ~jobs ~trace:(value_of "--trace") ~stats:(has "--stats") path
  | None ->
    if has "--trace" || has "--stats" then begin
      Printf.eprintf "error: --trace/--stats apply to the --json trajectory run\n";
      exit 2
    end;
    if not (has "--tables-only") then begin
      run_micro ();
      print_newline ();
      run_ablation_quality ();
      print_newline ()
    end;
    if not (has "--micro-only") then run_tables ~fast:(has "--fast") ()
