(* Benchmark harness.

   With no flags: the ablation-quality table on x298 (what each variant
   of the scheme costs in result quality). The paper's tables come from
   `bin/tables.exe`, and the timed end-to-end layers from perfbench.

   `--work`: every work counter of a fixed set of pipeline runs, the
   output `make work-gate` compares with bench/work_expected.txt.

   `--json PATH`: the recorded trajectory. Wall-times the fault-table
   workloads sequentially and on a `--jobs`-wide domain pool, verifies
   the two tables are bit-identical, and appends one run record to the
   JSON array at PATH (see BENCH_results.json at the repo root) so
   successive PRs accumulate a perf baseline to regress against. *)

(* Fixed workloads, built once. *)

let s27_universe = Bist_fault.Universe.collapsed (Bist_bench.S27.circuit ())
let s27_t0 = Bist_bench.S27.t0 ()

let x298_universe =
  Bist_fault.Universe.collapsed
    ((Option.get (Bist_bench.Registry.find "x298")).circuit ())

let x298_t0 =
  lazy
    (let rng = Bist_util.Rng.create 99 in
     let t0, _ = Bist_tgen.Engine.generate ~rng x298_universe in
     fst (Bist_tgen.Compaction.compact ~max_trials:150 x298_universe t0))

(* Ablation quality: the harness library computes what each variant
   costs in result quality. *)
let run_ablation_quality () =
  let rows = Bist_harness.Ablation.run ~seed:5 ~n:4 ~t0:(Lazy.force x298_t0) x298_universe in
  print_endline "== Ablation quality on x298 (n = 4) ==";
  print_string (Bist_harness.Ablation.render rows)

(* The recorded trajectory (`--json PATH`). *)

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
   - on a single-core host the speedup assertion is vacuous (the shards
     time-slice on one core, so speedup cannot exceed 1.0) and is
     skipped with a warning. *)

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
      "perf-smoke: warning: cores=1 — shards time-slice on one core, \
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

(* `--work`: the work gate. Every Obs counter of T0 generation, T0
   compaction and Scheme.execute at n = 4 on s27, x298, x526 and x1488
   (each as the experiment harness runs it, T0 from seed 2026), then of
   one x5378 execute at n = 4 on a fixed 720-vector random T0 with the
   fast strategy, one "circuit counter value" line each. Every count is
   deterministic and the same at every pool width, so `make work-gate`
   diffs this output against bench/work_expected.txt exactly. *)
let run_work () =
  let print name obs =
    List.iter
      (fun (counter, v) -> Printf.printf "%s %s %d\n" name counter v)
      (Bist_obs.Metrics.counters (Option.get (Bist_obs.Obs.metrics obs)))
  in
  let seed = 2026 and n = 4 in
  let circuit_of name = (Option.get (Bist_bench.Registry.find name)).circuit () in
  List.iter
    (fun name ->
      let circuit = circuit_of name in
      let budget = Bist_harness.Experiment.budget_for circuit in
      let universe = Universe.collapsed circuit in
      let obs = Bist_obs.Obs.create () in
      let raw, _ =
        Bist_tgen.Engine.generate ~obs
          ~config:(Bist_harness.Experiment.tgen_config circuit budget)
          ~rng:(Bist_util.Rng.create seed) universe
      in
      let t0, _ =
        Bist_tgen.Compaction.compact ~obs ~max_trials:budget.compaction_trials universe raw
      in
      ignore
        (Bist_core.Scheme.execute ~obs ~strategy:budget.strategy ~seed:(seed + n) ~n ~t0
           universe
          : Bist_core.Scheme.run);
      print name obs)
    [ "s27"; "x298"; "x526"; "x1488" ];
  let circuit = circuit_of "x5378" in
  let universe = Universe.collapsed circuit in
  let t0 =
    Bist_logic.Tseq.random_binary (Bist_util.Rng.create seed)
      ~width:(Bist_circuit.Netlist.num_inputs circuit) ~length:720
  in
  let obs = Bist_obs.Obs.create () in
  ignore
    (Bist_core.Scheme.execute ~obs ~strategy:Bist_core.Procedure2.fast_strategy
       ~seed:(seed + n) ~n ~t0 universe
      : Bist_core.Scheme.run);
  print "x5378" obs

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
  if has "--work" then run_work ()
  else if has "--perf-smoke" then
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
    run_ablation_quality ()
