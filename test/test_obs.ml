(* The observability sink (lib/obs) and the typed-error bugfixes that
   shipped with it: Seq_io.Parse_error, Procedure2.Undetected and the
   BIST_JOBS / --jobs validation in the domain pool. *)

module Obs = Bist_obs.Obs
module Json = Bist_obs.Json_check
module Metrics = Bist_obs.Metrics
module Pool = Bist_parallel.Pool
module Seq_io = Bist_harness.Seq_io

(* A deterministic clock: every reading is one second after the last,
   starting at 0. Obs.create consumes the first tick for the sink
   epoch, so span timestamps are small integers. *)
let fake_clock () =
  let now = ref (-1.0) in
  fun () ->
    now := !now +. 1.0;
    !now

let json_exn text =
  match Json.parse text with
  | Ok v -> v
  | Error msg -> Alcotest.failf "trace JSON rejected: %s" msg

let events_exn json =
  match Json.member "traceEvents" json with
  | Some (Json.List events) -> events
  | _ -> Alcotest.fail "missing traceEvents array"

let event_field event name =
  match Json.member name event with
  | Some v -> v
  | None -> Alcotest.failf "event missing %S" name

let number = function
  | Json.Number f -> f
  | _ -> Alcotest.fail "expected a JSON number"

let find_event events name =
  match
    List.find_opt
      (fun e -> event_field e "name" = Json.String name)
      events
  with
  | Some e -> e
  | None -> Alcotest.failf "no trace event named %S" name

(* Spans *)

let test_span_nesting () =
  let obs = Obs.create ~clock:(fake_clock ()) ~trace:true () in
  let result =
    Obs.span obs "outer" (fun () ->
        ignore (Obs.span obs "inner" (fun () -> 7));
        42)
  in
  Alcotest.(check int) "span returns the body's value" 42 result;
  let events = events_exn (json_exn (Obs.trace_json obs)) in
  Alcotest.(check int) "two events" 2 (List.length events);
  let outer = find_event events "outer" and inner = find_event events "inner" in
  let ts e = number (event_field e "ts") and dur e = number (event_field e "dur") in
  (* Clock ticks: outer in = 1, inner in = 2, inner out = 3, outer
     out = 4 (seconds), emitted as microseconds since the sink epoch. *)
  Alcotest.(check (float 1e-3)) "outer ts" 1e6 (ts outer);
  Alcotest.(check (float 1e-3)) "outer dur" 3e6 (dur outer);
  Alcotest.(check (float 1e-3)) "inner ts" 2e6 (ts inner);
  Alcotest.(check (float 1e-3)) "inner dur" 1e6 (dur inner);
  Alcotest.(check bool) "inner nested inside outer" true
    (ts inner >= ts outer && ts inner +. dur inner <= ts outer +. dur outer);
  Alcotest.(check (list (pair string (float 1e-9))))
    "span_seconds totals" [ ("inner", 1.0); ("outer", 3.0) ]
    (Obs.span_seconds obs)

let test_span_exception () =
  let obs = Obs.create ~clock:(fake_clock ()) ~trace:true () in
  (try
     Obs.span obs "failing" (fun () -> failwith "boom")
   with Failure msg -> Alcotest.(check string) "re-raised" "boom" msg);
  Alcotest.(check (list (pair string (float 1e-9))))
    "failed span still timed" [ ("failing", 1.0) ]
    (Obs.span_seconds obs);
  let events = events_exn (json_exn (Obs.trace_json obs)) in
  let args = event_field (find_event events "failing") "args" in
  match Json.member "error" args with
  | Some (Json.String msg) ->
    Alcotest.(check bool) "error arg mentions the exception" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "failing span has no error arg"

let test_args_escaping () =
  let nasty = "quote\" backslash\\ newline\n tab\t control\x01" in
  let obs = Obs.create ~trace:true () in
  Obs.span obs "escaped" ~args:(fun () -> [ ("k", nasty) ]) (fun () -> ());
  let events = events_exn (json_exn (Obs.trace_json obs)) in
  let args = event_field (find_event events "escaped") "args" in
  match Json.member "k" args with
  | Some (Json.String round_tripped) ->
    Alcotest.(check string) "arg survives JSON round-trip" nasty round_tripped
  | _ -> Alcotest.fail "missing arg k"

let test_null_sink () =
  let ran = ref 0 in
  let v = Obs.span Obs.null "anything" (fun () -> incr ran; 9) in
  Alcotest.(check int) "null span runs the body once" 1 !ran;
  Alcotest.(check int) "null span returns the value" 9 v;
  Obs.count Obs.null "c";
  Obs.gauge Obs.null "g" 1.0;
  Obs.observe Obs.null "h" 1.0;
  Alcotest.(check bool) "null is disabled" false (Obs.enabled Obs.null);
  Alcotest.(check int) "no trace events" 0 (Obs.trace_events Obs.null);
  Alcotest.(check (list (pair string (float 0.)))) "no span totals" []
    (Obs.span_seconds Obs.null);
  Alcotest.(check string) "empty summary" "" (Obs.summary Obs.null);
  (* Even the disabled sink's trace document is valid Chrome JSON. *)
  let events = events_exn (json_exn (Obs.trace_json Obs.null)) in
  Alcotest.(check int) "empty traceEvents" 0 (List.length events)

let test_untraced_sink () =
  (* Metrics-only sink (the --stats path): spans aggregate, no events. *)
  let obs = Obs.create ~clock:(fake_clock ()) () in
  Obs.span obs "phase" (fun () -> ());
  Obs.span obs "phase" (fun () -> ());
  Alcotest.(check int) "no events buffered" 0 (Obs.trace_events obs);
  Alcotest.(check (list (pair string (float 1e-9))))
    "durations still aggregated" [ ("phase", 2.0) ]
    (Obs.span_seconds obs);
  Alcotest.(check bool) "summary mentions the phase" true
    (String.length (Obs.summary obs) > 0)

(* Metrics *)

let test_counter_math () =
  let m = Metrics.create () in
  Metrics.incr m "hits";
  Metrics.incr m ~by:5 "hits";
  Metrics.incr m "other";
  Alcotest.(check (option int)) "accumulates" (Some 6) (Metrics.counter m "hits");
  Alcotest.(check (option int)) "absent name" None (Metrics.counter m "nope");
  Alcotest.(check (list (pair string int))) "sorted listing"
    [ ("hits", 6); ("other", 1) ] (Metrics.counters m);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr m ~by:(-1) "hits")

let test_gauge_latest_wins () =
  let m = Metrics.create () in
  Metrics.set_gauge m "depth" 3.0;
  Metrics.set_gauge m "depth" 7.5;
  Alcotest.(check (option (float 0.))) "latest value" (Some 7.5)
    (Metrics.gauge m "depth")

let test_histogram_math () =
  let m = Metrics.create () in
  let samples = [ 5e-7; 5e-7; 0.005; 2.0; 20.0 ] in
  List.iter (Metrics.observe m "dur") samples;
  match Metrics.histogram m "dur" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 5 h.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum" 22.005001 h.Metrics.sum;
    Alcotest.(check (float 1e-9)) "min" 5e-7 h.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 20.0 h.Metrics.max;
    Alcotest.(check (float 1e-9)) "mean" (22.005001 /. 5.0) (Metrics.mean h);
    let bucket bound =
      match List.assoc_opt bound h.Metrics.buckets with
      | Some n -> n
      | None -> Alcotest.failf "no bucket with bound %g" bound
    in
    (* Each sample lands in exactly one decade bucket. *)
    Alcotest.(check int) "<= 1e-6" 2 (bucket 1e-6);
    Alcotest.(check int) "<= 1e-2" 1 (bucket 1e-2);
    Alcotest.(check int) "<= 10" 1 (bucket 10.0);
    Alcotest.(check int) "overflow" 1 (bucket infinity);
    Alcotest.(check int) "total across buckets" 5
      (List.fold_left (fun acc (_, n) -> acc + n) 0 h.Metrics.buckets)

(* Bugfix: Seq_io raises a typed, line-numbered Parse_error. *)

let check_parse_error ~line ~substr text =
  match Seq_io.parse text with
  | _ -> Alcotest.failf "parse accepted %S" text
  | exception Seq_io.Parse_error { line = l; message } ->
    Alcotest.(check int) "line number" line l;
    let mentions needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "message %S mentions %S" message substr)
      true (mentions substr message)

let test_seq_io_errors () =
  check_parse_error ~line:2 ~substr:"'b'" "01\nbad\n";
  check_parse_error ~line:0 ~substr:"no vectors" "# only a comment\n\n";
  check_parse_error ~line:3 ~substr:"expected 2" "01\n10\n101\n";
  (* The registered printer renders file context, not a bare Failure. *)
  (match Seq_io.parse "0\n1\nx2\n" with
  | _ -> Alcotest.fail "accepted bad vector"
  | exception e ->
    Alcotest.(check string) "printer output"
      "sequence parse error at line 3: Ternary.of_char: '2'"
      (Printexc.to_string e));
  (* Good inputs still parse: comments, blanks, X symbols. *)
  let seq = Seq_io.parse "# header\n01\nx1  # trailing\n\n" in
  Alcotest.(check int) "two vectors" 2 (Bist_logic.Tseq.length seq)

(* Bugfix: Procedure 2 gives up with a typed error naming the fault. *)

let test_procedure2_undetected () =
  let circuit =
    Bist_circuit.Bench_parser.parse_string ~name:"const"
      "INPUT(a)\nzero = CONST0\ny = AND(a, zero)\nOUTPUT(y)\n"
  in
  (* y is constantly 0, so y stuck-at-0 is undetectable: no udet is
     valid and Procedure 2 must fail with the fault's name, not a bare
     Failure. *)
  let fault =
    Bist_fault.Fault.output_stuck
      (Bist_circuit.Netlist.find_exn circuit "y")
      Bist_logic.Ternary.Zero
  in
  let t0 = Seq_io.parse "0\n1\n1\n0\n" in
  let rng = Bist_util.Rng.create 1 in
  match
    Bist_core.Procedure2.find ~rng ~n:2 ~t0 ~udet:1 circuit fault
  with
  | _ -> Alcotest.fail "undetectable fault reported as found"
  | exception Bist_core.Procedure2.Undetected { fault = name; udet } ->
    Alcotest.(check int) "udet echoed" 1 udet;
    Alcotest.(check string) "fault named" "y/0" name

let test_procedure2_undetected_counted () =
  let circuit =
    Bist_circuit.Bench_parser.parse_string ~name:"const"
      "INPUT(a)\nzero = CONST0\ny = AND(a, zero)\nOUTPUT(y)\n"
  in
  let fault =
    Bist_fault.Fault.output_stuck
      (Bist_circuit.Netlist.find_exn circuit "y")
      Bist_logic.Ternary.Zero
  in
  let t0 = Seq_io.parse "0\n1\n" in
  let obs = Obs.create () in
  (match
     Bist_core.Procedure2.find ~obs ~rng:(Bist_util.Rng.create 1) ~n:2 ~t0
       ~udet:0 circuit fault
   with
  | _ -> Alcotest.fail "undetectable fault reported as found"
  | exception Bist_core.Procedure2.Undetected _ -> ());
  match Obs.metrics obs with
  | None -> Alcotest.fail "enabled sink has metrics"
  | Some m ->
    Alcotest.(check (option int)) "failure counted" (Some 1)
      (Metrics.counter m "proc2.undetected")

(* Bugfix: BIST_JOBS / --jobs validation. *)

let test_jobs_env_validation () =
  let check label expected s =
    Alcotest.(check (option int)) label expected (Pool.jobs_of_env_string s)
  in
  check "garbage rejected" None "abc";
  check "empty rejected" None "";
  check "zero is sequential" None "0";
  check "negative rejected" None "-3";
  check "one is sequential" None "1";
  check "two accepted" (Some 2) "2";
  check "plain width accepted" (Some 4) "4";
  check "huge width clamped" (Some Pool.max_jobs) "2000";
  check "max itself accepted" (Some Pool.max_jobs)
    (string_of_int Pool.max_jobs)

let test_jobs_cli_validation () =
  let v = Pool.validate_jobs ~source:"--jobs" in
  Alcotest.(check int) "auto passes through" 0 (v 0);
  Alcotest.(check int) "in-range passes through" 4 (v 4);
  Alcotest.(check int) "negative falls back to auto" 0 (v (-2));
  Alcotest.(check int) "oversized clamped" Pool.max_jobs (v 5000)

(* Integration: a traced pipeline run produces a valid document whose
   span names cover generation, compaction and the parallel shards. *)

let test_pipeline_trace () =
  let entry = Bist_bench.Registry.s27 in
  let universe = Bist_fault.Universe.collapsed (entry.circuit ()) in
  let obs = Obs.create ~trace:true () in
  let pool = Pool.create ~jobs:2 () in
  let rng = Bist_util.Rng.create 3 in
  let t0, _ = Bist_tgen.Engine.generate ~obs ~pool ~rng universe in
  let _, _ = Bist_tgen.Compaction.compact ~obs ~pool universe t0 in
  Pool.shutdown pool;
  let events = events_exn (json_exn (Obs.trace_json obs)) in
  List.iter
    (fun name -> ignore (find_event events name))
    [ "engine.selection"; "compaction.baseline"; "compaction.pass"; "fsim.shard" ];
  (* Every event has the mandatory Chrome trace fields. *)
  List.iter
    (fun e ->
      ignore (event_field e "ph");
      ignore (number (event_field e "ts"));
      ignore (number (event_field e "dur"));
      ignore (number (event_field e "tid")))
    events

let test_obs_neutral () =
  (* The instrumentation must not perturb results: the fault table is
     bit-identical whether the sink is enabled, tracing, or null. *)
  let entry = Bist_bench.Registry.s27 in
  let circuit = entry.circuit () in
  let universe = Bist_fault.Universe.collapsed circuit in
  let t0 = Bist_bench.S27.t0 () in
  let module Ft = Bist_fault.Fault_table in
  let plain = Ft.compute universe t0 in
  let traced = Ft.compute ~obs:(Obs.create ~trace:true ()) universe t0 in
  Alcotest.(check bool) "detected sets equal" true
    (Bist_util.Bitset.equal (Ft.detected plain) (Ft.detected traced));
  for id = 0 to Bist_fault.Universe.size universe - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "udet of fault %d" id)
      (Ft.udet plain id) (Ft.udet traced id)
  done

(* Work counters of x298 tgen on an explicit pool, then of
   Scheme.execute at n = 4 on its T0. Shards hold whole 62-fault groups,
   so every counter is the same at widths 1, 2 and 4 and on a repeat
   run. Scheme.execute runs on the BIST_JOBS pool, so its counters are
   also pinned: `dune runtest` checks them at width 1 and
   `BIST_JOBS=2 dune runtest` at width 2. A change to the work these
   layers do updates the numbers and says why. *)
let x298_counters jobs =
  let universe =
    Bist_fault.Universe.collapsed
      ((Option.get (Bist_bench.Registry.find "x298")).circuit ())
  in
  let counters obs = Metrics.counters (Option.get (Obs.metrics obs)) in
  let obs = Obs.create () in
  let pool = Pool.create ~jobs () in
  let rng = Bist_util.Rng.create 7 in
  let t0, _ = Bist_tgen.Engine.generate ~obs ~pool ~rng universe in
  let t0, _ = Bist_tgen.Compaction.compact ~obs ~pool universe t0 in
  Pool.shutdown pool;
  let select = Obs.create () in
  ignore (Bist_core.Scheme.execute ~obs:select ~seed:7 ~n:4 ~t0 universe : Bist_core.Scheme.run);
  (counters obs, counters select)

let test_work_counters () =
  let base = x298_counters 1 in
  Alcotest.(check (list (pair string int)))
    "select x298 -n 4"
    [ ("fsim.dropped_lanes", 1579); ("fsim.evaluations", 38518); ("fsim.group_steps", 1791);
      ("fsim.groups", 43); ("fsim.skipped_steps", 655); ("fsim.trace_copies", 343);
      ("fsim.trace_steps", 1059); ("postprocess.time_units", 1568);
      ("proc1.sequences", 6); ("proc2.evaluations", 2177); ("proc2.group_steps", 1937);
      ("proc2.simulations", 47); ("proc2.skipped_steps", 1409); ("proc2.time_units", 4160);
      ("proc2.trace_copies", 1269); ("proc2.trace_steps", 3206);
      ("verify.dropped_lanes", 351); ("verify.evaluations", 11863); ("verify.group_steps", 553);
      ("verify.groups", 11); ("verify.skipped_steps", 123); ("verify.time_units", 416);
      ("verify.trace_copies", 102); ("verify.trace_steps", 347) ]
    (snd base);
  List.iter
    (fun (label, jobs) ->
      Alcotest.(check (pair (list (pair string int)) (list (pair string int))))
        label base (x298_counters jobs))
    [ ("jobs=2", 2); ("jobs=4", 4); ("repeat", 1) ]

(* Json_check itself: accepts RFC 8259 shapes, rejects near-JSON. *)

let test_json_check () =
  let ok s = match Json.parse s with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "rejected %S: %s" s m
  and bad s = match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  ok {|{"a": [1, -2.5e3, true, false, null], "b": "x\n\"\\A"}|};
  ok "  [ ]  ";
  ok {|"lone string"|};
  bad "{";
  bad "[1,]";
  bad "{\"a\": 1,}";
  bad "[1] trailing";
  bad "'single'";
  bad "{\"a\" 1}";
  match Json.parse "{\"u\": \"\\u0041\"}" with
  | Ok j ->
    Alcotest.(check bool) "unicode escape decodes" true
      (Json.member "u" j = Some (Json.String "A"))
  | Error m -> Alcotest.failf "unicode escape rejected: %s" m

let suite =
  [
    Alcotest.test_case "span nesting and timestamps" `Quick test_span_nesting;
    Alcotest.test_case "span records and re-raises exceptions" `Quick
      test_span_exception;
    Alcotest.test_case "trace args are JSON-escaped" `Quick test_args_escaping;
    Alcotest.test_case "null sink is a no-op" `Quick test_null_sink;
    Alcotest.test_case "metrics-only sink aggregates without events" `Quick
      test_untraced_sink;
    Alcotest.test_case "counter math" `Quick test_counter_math;
    Alcotest.test_case "gauge keeps the latest value" `Quick
      test_gauge_latest_wins;
    Alcotest.test_case "histogram count/sum/extrema/buckets" `Quick
      test_histogram_math;
    Alcotest.test_case "Seq_io reports typed line-numbered errors" `Quick
      test_seq_io_errors;
    Alcotest.test_case "Procedure 2 names the undetected fault" `Quick
      test_procedure2_undetected;
    Alcotest.test_case "Procedure 2 failure is counted in obs" `Quick
      test_procedure2_undetected_counted;
    Alcotest.test_case "BIST_JOBS strings are validated" `Quick
      test_jobs_env_validation;
    Alcotest.test_case "--jobs values are validated" `Quick
      test_jobs_cli_validation;
    Alcotest.test_case "traced pipeline emits a valid span set" `Quick
      test_pipeline_trace;
    Alcotest.test_case "instrumentation leaves fault tables bit-identical"
      `Quick test_obs_neutral;
    Alcotest.test_case "work counters repeat at every pool width" `Quick
      test_work_counters;
    Alcotest.test_case "Json_check accepts JSON and rejects near-JSON" `Quick
      test_json_check;
  ]
