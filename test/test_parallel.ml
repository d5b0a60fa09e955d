(* Suites for Bist_parallel: the domain pool's chunking, exception and
   reuse behaviour; the determinism contract of the sharded fault
   simulator (parallel table == sequential table, bit for bit); the
   Packed_sim / Seq_sim cross-check that pins the packed kernel's
   fault-free lane; and the Rng-splitting protocol for randomness that
   crosses a domain boundary. *)

module Pool = Bist_parallel.Pool
module Shard = Bist_parallel.Shard
module Tune = Bist_parallel.Tune
module Rng = Bist_util.Rng
module Bitset = Bist_util.Bitset
module Tseq = Bist_logic.Tseq
module T = Bist_logic.Ternary
module Netlist = Bist_circuit.Netlist
module Universe = Bist_fault.Universe
module Fsim = Bist_fault.Fsim
module Fault_table = Bist_fault.Fault_table

(* Suite-level pools, shared by every test below — which is itself a
   standing check that a pool survives arbitrary reuse. Widths are
   explicit: even on a single-core host the domains exist and
   interleave, so the parallel path is really exercised. *)
let pool1 = Pool.create ~jobs:1 ()
let pool2 = Pool.create ~jobs:2 ()
let pool4 = Pool.create ~jobs:4 ()

(* Sharding forced regardless of this host's core count or the measured
   crossover, so the parallel machinery is really exercised. *)
let tune_forced () = Tune.create ~min_units:1 ()

(* Shard.partition *)

let test_partition_boundaries () =
  Alcotest.(check int) "empty input, no chunks" 0
    (Array.length (Shard.partition ~chunks:4 [||]));
  let p = Shard.partition ~chunks:8 [| 10; 11; 12 |] in
  Alcotest.(check int) "fewer items than chunks" 3 (Array.length p);
  Array.iter
    (fun c -> Alcotest.(check int) "chunk size 1" 1 (Array.length c))
    p;
  let arr = Array.init 10 Fun.id in
  let p = Shard.partition ~chunks:3 arr in
  Alcotest.(check (list int)) "balanced within one" [ 4; 3; 3 ]
    (List.map Array.length (Array.to_list p));
  Alcotest.(check (list int)) "concatenation preserves order"
    (Array.to_list arr)
    (List.concat_map Array.to_list (Array.to_list p));
  Alcotest.(check int) "chunks clamped to >= 1" 1
    (Array.length (Shard.partition ~chunks:0 [| 1; 2 |]))

let test_merge_scatter () =
  let det_time, detected =
    Shard.merge ~size:6
      [|
        { Shard.ids = [| 0; 2 |]; det_time = [| 3; -1 |] };
        { Shard.ids = [| 4; 5 |]; det_time = [| 0; 7 |] };
      |]
  in
  Alcotest.(check (array int)) "scattered times" [| 3; -1; -1; -1; 0; 7 |] det_time;
  Alcotest.(check (list int)) "detected set" [ 0; 4; 5 ] (Bitset.elements detected);
  Alcotest.check_raises "arity enforced"
    (Invalid_argument "Shard.merge: ids/det_time length mismatch") (fun () ->
      ignore (Shard.merge ~size:3 [| { Shard.ids = [| 0 |]; det_time = [||] } |]))

let test_detections_empty_universe () =
  let det_time, detected =
    Shard.detections ~pool:pool4 ~size:5 ~f:(fun ids -> Array.map (fun _ -> 0) ids)
      [||]
  in
  Alcotest.(check (array int)) "all undetected" (Array.make 5 (-1)) det_time;
  Alcotest.(check bool) "nothing detected" true (Bitset.is_empty detected)

(* Pool.map_chunks *)

let test_map_chunks_basic () =
  List.iter
    (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map_chunks pool Fun.id [||]);
      let input = Array.init 23 Fun.id in
      Alcotest.(check (array int)) "input order"
        (Array.map (fun i -> i * i) input)
        (Pool.map_chunks pool (fun i -> i * i) input))
    [ pool1; pool2; pool4 ]

let test_exception_from_worker () =
  (* The first task parks the caller so a worker domain picks up the
     failing tasks; with two failures the lowest input index wins, making
     the propagated exception deterministic under any schedule. *)
  Alcotest.check_raises "lowest-index failure propagates" (Failure "boom2")
    (fun () ->
      ignore
        (Pool.map_chunks pool4
           (fun i ->
             if i = 0 then Unix.sleepf 0.02;
             if i = 2 then failwith "boom2";
             if i = 5 then failwith "boom5";
             i)
           (Array.init 8 Fun.id)));
  (* The failed batch must not poison the pool. *)
  Alcotest.(check (array int)) "pool survives a raising batch"
    [| 0; 2; 4; 6 |]
    (Pool.map_chunks pool4 (fun i -> 2 * i) (Array.init 4 Fun.id))

let test_pool_reuse () =
  for round = 1 to 10 do
    let got = Pool.map_chunks pool2 (fun i -> i + round) (Array.init 7 Fun.id) in
    Alcotest.(check (array int))
      (Printf.sprintf "round %d" round)
      (Array.init 7 (fun i -> i + round))
      got
  done

let test_shutdown_falls_back () =
  let p = Pool.create ~jobs:3 () in
  Alcotest.(check int) "width" 3 (Pool.jobs p);
  Alcotest.(check (array int)) "parallel" [| 0; 1; 4; 9 |]
    (Pool.map_chunks p (fun i -> i * i) (Array.init 4 Fun.id));
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.(check (array int)) "sequential after shutdown" [| 0; 1; 4; 9 |]
    (Pool.map_chunks p (fun i -> i * i) (Array.init 4 Fun.id))

(* Rng splitting across domains *)

let test_rng_split_across_domains () =
  (* Oracle: split one child per chunk off a copy of the parent and draw
     the streams sequentially. *)
  let parent = Rng.create 2024 in
  let oracle = Rng.copy parent in
  let o1 = Rng.split oracle in
  let o2 = Rng.split oracle in
  let expect1 = Array.init 256 (fun _ -> Rng.bits64 o1) in
  let expect2 = Array.init 256 (fun _ -> Rng.bits64 o2) in
  (* Live: the same two children, drawn concurrently on two domains.
     Because each child owns disjoint generator state, the concurrent
     draws cannot interleave into a shared stream — both streams must
     reproduce the sequential oracle exactly. *)
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  let d = Domain.spawn (fun () -> Array.init 256 (fun _ -> Rng.bits64 c1)) in
  let got2 = Array.init 256 (fun _ -> Rng.bits64 c2) in
  let got1 = Domain.join d in
  Alcotest.(check (array int64)) "domain 1 matches oracle" expect1 got1;
  Alcotest.(check (array int64)) "domain 2 matches oracle" expect2 got2

let test_map_chunks_rng_width_independent () =
  (* Children are split in input order before dispatch, so the combined
     result is a pure function of the parent seed — for any pool width. *)
  let run pool =
    let rng = Rng.create 99 in
    Pool.map_chunks_rng pool ~rng
      (fun r x -> (x, Rng.int r 1_000_000, Rng.int r 1_000_000))
      (Array.init 9 Fun.id)
    |> Array.to_list
  in
  let reference = run pool1 in
  Alcotest.(check bool) "jobs=2 identical" true (run pool2 = reference);
  Alcotest.(check bool) "jobs=4 identical" true (run pool4 = reference)

(* Determinism contract of the sharded fault simulator *)

let same_table reference table universe =
  Bitset.equal (Fault_table.detected reference) (Fault_table.detected table)
  && Array.for_all
       (fun id -> Fault_table.udet reference id = Fault_table.udet table id)
       (Array.init (Universe.size universe) Fun.id)

let fault_table_determinism =
  Testutil.qcheck
    (QCheck.Test.make
       ~name:"parallel fault table == sequential (jobs in {1,2,4})" ~count:30
       QCheck.(pair (int_range 0 300) (int_range 1 1_000_000))
       (fun (cseed, sseed) ->
         let circuit = Testutil.small_circuit cseed in
         let universe = Universe.collapsed circuit in
         let rng = Rng.create sseed in
         let seq =
           Tseq.random_binary rng
             ~width:(Netlist.num_inputs circuit)
             ~length:(8 + (sseed mod 40))
         in
         let reference = Fault_table.compute ~pool:pool1 universe seq in
         same_table reference
           (Fault_table.compute ~pool:pool2 ~tune:(tune_forced ()) universe seq)
           universe
         && same_table reference
              (Fault_table.compute ~pool:pool4 ~tune:(tune_forced ()) universe seq)
              universe))

(* The acceptance bar of this PR: on every registry circuit, the jobs=4
   table is bit-identical to the sequential one. *)
let test_registry_tables_identical () =
  List.iter
    (fun (entry : Bist_bench.Registry.entry) ->
      let circuit = entry.circuit () in
      let universe = Universe.collapsed circuit in
      let rng = Rng.create 7 in
      let seq =
        Tseq.random_binary rng ~width:(Netlist.num_inputs circuit) ~length:24
      in
      let reference = Fault_table.compute ~pool:pool1 universe seq in
      let parallel =
        Fault_table.compute ~pool:pool4 ~tune:(tune_forced ()) universe seq
      in
      Alcotest.(check bool)
        (entry.name ^ " jobs=4 == jobs=1")
        true
        (same_table reference parallel universe))
    (Bist_bench.Registry.all ())

let test_fsim_targets_with_pool () =
  let circuit = Bist_bench.S27.circuit () in
  let universe = Universe.collapsed circuit in
  let t0 = Bist_bench.S27.t0 () in
  let targets = Bitset.create (Universe.size universe) in
  for id = 0 to Universe.size universe - 1 do
    if id mod 2 = 0 then Bitset.add targets id
  done;
  let a = Fsim.run ~pool:pool1 ~targets universe t0 in
  let b = Fsim.run ~pool:pool4 ~tune:(tune_forced ()) ~targets universe t0 in
  Alcotest.(check (array int)) "target det times identical" a.Fsim.det_time
    b.Fsim.det_time;
  Alcotest.(check bool) "non-targets untouched" true
    (Array.for_all Fun.id
       (Array.mapi
          (fun id dt -> Bitset.mem targets id || dt = -1)
          b.Fsim.det_time))

(* The campaign driver shards its trials the same way. *)
let test_campaign_parallel_identical () =
  let entry = Bist_bench.Registry.s27 in
  let circuit = entry.circuit () in
  let config = { Bist_inject.Campaign.default_config with count = 30 } in
  let sequential = Bist_inject.Campaign.run ~config ~name:"s27" circuit in
  let parallel =
    Bist_inject.Campaign.run ~config ~pool:pool4 ~name:"s27" circuit
  in
  Alcotest.(check int) "corrected" sequential.corrected parallel.corrected;
  Alcotest.(check int) "detected" sequential.detected parallel.detected;
  Alcotest.(check int) "benign" sequential.benign parallel.benign;
  Alcotest.(check int) "escaped" sequential.escaped parallel.escaped;
  Alcotest.(check bool) "trial-by-trial identical" true
    (sequential.trials = parallel.trials)

(* Packed_sim vs Seq_sim: lane 0 of the packed kernel, pinned against
   the scalar levelized simulator on random circuits and on known ones. *)

let test_packed_vs_seq_sim_random =
  Testutil.qcheck
    (QCheck.Test.make ~name:"Packed_sim lane 0 == Seq_sim" ~count:60
       Testutil.circuit_and_seq
       (fun (cseed, sseed, len) ->
         let circuit = Testutil.small_circuit cseed in
         let rng = Rng.create sseed in
         let seq =
           Tseq.random_binary rng ~width:(Netlist.num_inputs circuit) ~length:len
         in
         Testutil.packed_lane0_matches_seq_sim circuit seq))

let test_packed_vs_seq_sim_registry_and_teaching () =
  let circuits =
    [
      Bist_bench.S27.circuit ();
      Bist_bench.Teaching.counter3 ();
      Bist_bench.Teaching.shift4 ();
      Bist_bench.Teaching.parity_fsm ();
      (Option.get (Bist_bench.Registry.find "x298")).circuit ();
    ]
  in
  List.iter
    (fun circuit ->
      let rng = Rng.create 11 in
      let seq =
        Tseq.random_binary rng ~width:(Netlist.num_inputs circuit) ~length:48
      in
      Alcotest.(check bool)
        (Netlist.circuit_name circuit ^ " lane 0 == Seq_sim")
        true
        (Testutil.packed_lane0_matches_seq_sim circuit seq))
    circuits

(* The sequential/parallel crossover policy (Tune) *)

let test_tune_policy () =
  let t1 = Tune.create ~cores:1 () in
  Alcotest.(check int) "cores=1 never shards" 1
    (Tune.chunks t1 ~jobs:4 ~units:1_000_000);
  let tf = Tune.create ~min_units:0 () in
  Alcotest.(check int) "min_units=0 forces maximal sharding" 4
    (Tune.chunks tf ~jobs:4 ~units:3);
  let tm = Tune.create ~min_units:10 () in
  Alcotest.(check int) "fixed floor divides the work" 3
    (Tune.chunks tm ~jobs:8 ~units:35);
  Alcotest.(check int) "jobs=1 is always sequential" 1
    (Tune.chunks tf ~jobs:1 ~units:1_000_000);
  (* Measured crossover: record 1 µs/unit, so the 0.5 ms floor is 500
     units per shard. *)
  let t = Tune.create ~cores:4 () in
  Tune.record t ~units:1000 ~seconds:0.001;
  Alcotest.(check bool) "ns/unit learned" true
    (abs_float (Tune.ns_per_unit t -. 1000.) < 1e-6);
  Alcotest.(check int) "below the crossover" 1 (Tune.chunks t ~jobs:4 ~units:999);
  Alcotest.(check int) "just above the crossover" 2
    (Tune.chunks t ~jobs:4 ~units:1000);
  Alcotest.(check int) "large work caps at jobs" 4
    (Tune.chunks t ~jobs:4 ~units:1_000_000);
  (* EWMA: a second, slower measurement moves the estimate 30% of the
     way. *)
  Tune.record t ~units:1000 ~seconds:0.002;
  Alcotest.(check bool) "EWMA folds new measurements" true
    (abs_float (Tune.ns_per_unit t -. 1300.) < 1e-6);
  Tune.record t ~units:0 ~seconds:1.0;
  Alcotest.(check bool) "zero-unit records ignored" true
    (abs_float (Tune.ns_per_unit t -. 1300.) < 1e-6)

(* Dispatch amortization: task count is O(width), not O(chunks), and
   empty or sequential calls enqueue nothing. *)
let test_dispatch_task_count () =
  let base = Pool.dispatched_tasks () in
  ignore (Pool.map_chunks pool4 Fun.id (Array.init 10 Fun.id));
  Alcotest.(check int) "10 chunks on jobs=4: 3 tasks" (base + 3)
    (Pool.dispatched_tasks ());
  ignore (Pool.map_chunks pool4 Fun.id (Array.init 2 Fun.id));
  Alcotest.(check int) "2 chunks: 1 task" (base + 4) (Pool.dispatched_tasks ());
  ignore (Pool.map_chunks pool4 Fun.id [| 42 |]);
  ignore (Pool.map_chunks pool4 Fun.id ([||] : int array));
  ignore (Pool.map_chunks pool1 Fun.id (Array.init 10 Fun.id));
  Alcotest.(check int) "singleton/empty/sequential: no tasks" (base + 4)
    (Pool.dispatched_tasks ());
  (* Sharded detections: 3 ids forced over jobs=4 make 3 never-empty
     slices, hence 2 helper tasks beyond the caller. *)
  let f ids = Array.map (fun _ -> -1) ids in
  ignore
    (Shard.detections ~pool:pool4 ~tune:(Tune.create ~min_units:0 ()) ~size:4 ~f
       (Array.init 3 Fun.id));
  Alcotest.(check int) "3 slices on jobs=4: 2 tasks" (base + 6)
    (Pool.dispatched_tasks ());
  (* Below the crossover nothing is dispatched at all. *)
  ignore
    (Shard.detections ~pool:pool4 ~tune:(Tune.create ~min_units:max_int ())
       ~size:4 ~f (Array.init 3 Fun.id));
  Alcotest.(check int) "sequential crossover: no tasks" (base + 6)
    (Pool.dispatched_tasks ())

let suite =
  [
    Alcotest.test_case "shard partition boundaries" `Quick test_partition_boundaries;
    Alcotest.test_case "shard merge scatter" `Quick test_merge_scatter;
    Alcotest.test_case "shard empty universe" `Quick test_detections_empty_universe;
    Alcotest.test_case "pool map_chunks basics" `Quick test_map_chunks_basic;
    Alcotest.test_case "pool exception propagation" `Quick test_exception_from_worker;
    Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "pool shutdown fallback" `Quick test_shutdown_falls_back;
    Alcotest.test_case "rng split across domains" `Quick test_rng_split_across_domains;
    Alcotest.test_case "rng chunk splits are width-independent" `Quick
      test_map_chunks_rng_width_independent;
    Alcotest.test_case "tune crossover policy" `Quick test_tune_policy;
    Alcotest.test_case "dispatch task count pinned" `Quick
      test_dispatch_task_count;
    fault_table_determinism;
    Alcotest.test_case "registry tables identical at jobs=4" `Slow
      test_registry_tables_identical;
    Alcotest.test_case "fsim targets with pool" `Quick test_fsim_targets_with_pool;
    Alcotest.test_case "campaign parallel identical" `Slow
      test_campaign_parallel_identical;
    test_packed_vs_seq_sim_random;
    Alcotest.test_case "packed vs event on known circuits" `Quick
      test_packed_vs_seq_sim_registry_and_teaching;
  ]
