(* Suites for Bist_resilience and the preemption plumbing: CRC32 and
   atomic writes, deadline/cancel/ctl semantics, the checkpoint container
   (corruption and mismatch are typed errors, never escapes), the
   snapshot codecs, and the headline invariant — interrupt/resume is
   bit-identical to an uninterrupted run for the engine, compaction and
   the injection campaign. *)

module Crc32 = Bist_resilience.Crc32
module Atomic_io = Bist_resilience.Atomic_io
module Deadline = Bist_resilience.Deadline
module Cancel = Bist_resilience.Cancel
module Ctl = Bist_resilience.Ctl
module Checkpoint = Bist_resilience.Checkpoint
module Io = Checkpoint.Io
module Rng = Bist_util.Rng
module Bitset = Bist_util.Bitset
module Tseq = Bist_logic.Tseq
module Universe = Bist_fault.Universe
module Engine = Bist_tgen.Engine
module Compaction = Bist_tgen.Compaction
module Campaign = Bist_inject.Campaign
module Obs = Bist_obs.Obs

let qcheck = QCheck_alcotest.to_alcotest

(* A clock that reports epoch 0.0 for its first [after_calls] samples and
   jumps far past any deadline afterwards: deterministic preemption at
   the n-th safe-point poll, no wall clock involved. *)
let expiring_clock ~after_calls =
  let calls = ref 0 in
  fun () ->
    incr calls;
    if !calls > after_calls then 1.0e9 else 0.0

let expiring_ctl ~after_calls =
  Ctl.create ~deadline:(Deadline.after ~clock:(expiring_clock ~after_calls) 1.0) ()

(* crc32 *)

let test_crc32_vectors () =
  Alcotest.(check int32) "check vector" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "");
  let s = "the quick brown fox jumps over the lazy dog" in
  let split = 17 in
  let incremental =
    Crc32.update
      (Crc32.update 0l s ~pos:0 ~len:split)
      s ~pos:split ~len:(String.length s - split)
  in
  Alcotest.(check int32) "incremental = one-shot" (Crc32.string s) incremental

(* atomic writes *)

let test_atomic_write_roundtrip () =
  let path = Filename.temp_file "bist_atomic" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let payload = String.init 4096 (fun i -> Char.chr (i mod 256)) in
      Atomic_io.write_file ~path payload;
      Alcotest.(check string) "roundtrip" payload (Atomic_io.read_file ~path);
      (* overwrite in place: readers only ever see old or new, and no
         temp file survives *)
      Atomic_io.write_file ~path "second";
      Alcotest.(check string) "overwrite" "second" (Atomic_io.read_file ~path);
      let dir = Filename.dirname path and base = Filename.basename path in
      let leftovers =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               f <> base
               && String.length f > String.length base
               && String.sub f 0 (String.length base) = base)
      in
      Alcotest.(check (list string)) "no temp leftovers" [] leftovers)

(* deadline / cancel / ctl *)

let test_deadline_fake_clock () =
  let d = Deadline.after ~clock:(expiring_clock ~after_calls:3) 1.0 in
  (* creation consumed one sample; two more are still "before" *)
  Alcotest.(check bool) "not yet" false (Deadline.expired d);
  Alcotest.(check bool) "still not" false (Deadline.expired d);
  Alcotest.(check bool) "now expired" true (Deadline.expired d);
  Alcotest.(check bool) "stays expired" true (Deadline.expired d)

let test_deadline_rejects_nonpositive () =
  Alcotest.(check bool) "raises" true
    (match Deadline.after 0.0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_cancel_across_domains () =
  let c = Cancel.create () in
  Alcotest.(check bool) "initially clear" false (Cancel.requested c);
  (* request from another domain; the atomic must be visible here *)
  let d = Domain.spawn (fun () -> Cancel.request c) in
  Domain.join d;
  Alcotest.(check bool) "visible after join" true (Cancel.requested c);
  let observed = Domain.spawn (fun () -> Cancel.requested c) in
  Alcotest.(check bool) "visible in a third domain" true (Domain.join observed)

let test_ctl_progress_gates_deadline () =
  (* one clock sample is consumed at creation; every later one is late *)
  let ctl = expiring_ctl ~after_calls:1 in
  (* deadline already expired, but no step has committed: a preemption
     here could livelock resume, so the ctl must hold fire *)
  Alcotest.(check bool) "gated" true (Ctl.stop_reason ctl = None);
  Ctl.note_progress ctl;
  Alcotest.(check bool) "fires after progress" true
    (Ctl.stop_reason ctl = Some Ctl.Deadline_exceeded)

let test_ctl_cancel_immediate () =
  let cancel = Cancel.create () in
  let ctl = Ctl.create ~cancel () in
  Alcotest.(check bool) "clear" true (Ctl.stop_reason ctl = None);
  Cancel.request cancel;
  (* no progress yet — cancellation must still fire (SIGTERM semantics) *)
  Alcotest.(check bool) "immediate" true
    (Ctl.stop_reason ctl = Some Ctl.Cancelled);
  Alcotest.(check bool) "check raises Preempted" true
    (match Ctl.check ctl with
    | () -> false
    | exception Ctl.Preempted Ctl.Cancelled -> true)

(* the checkpoint container *)

let sample_header () =
  {
    Checkpoint.kind = "tgen";
    circuit = "s27";
    fingerprint = 0xDEADBEEFl;
    payload = "some opaque payload bytes";
  }

let expect_corrupt name f =
  Alcotest.(check bool) name true
    (match f () with
    | _ -> false
    | exception Checkpoint.Corrupt _ -> true)

let expect_mismatch name f =
  Alcotest.(check bool) name true
    (match f () with
    | _ -> false
    | exception Checkpoint.Mismatch _ -> true)

let test_container_roundtrip () =
  let h = sample_header () in
  let h' = Checkpoint.decode (Checkpoint.encode h) in
  Alcotest.(check string) "kind" h.kind h'.Checkpoint.kind;
  Alcotest.(check string) "circuit" h.circuit h'.Checkpoint.circuit;
  Alcotest.(check int32) "fingerprint" h.fingerprint h'.Checkpoint.fingerprint;
  Alcotest.(check string) "payload" h.payload h'.Checkpoint.payload

let test_container_corruption_is_typed () =
  let data = Checkpoint.encode (sample_header ()) in
  expect_corrupt "truncated" (fun () ->
      Checkpoint.decode (String.sub data 0 (String.length data - 3)));
  expect_corrupt "empty" (fun () -> Checkpoint.decode "");
  expect_corrupt "bad magic" (fun () ->
      Checkpoint.decode ("XISTCKPT" ^ String.sub data 8 (String.length data - 8)));
  (* flip one payload byte: the CRC must catch it *)
  let flipped = Bytes.of_string data in
  let mid = String.length data / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x40));
  expect_corrupt "bit flip" (fun () -> Checkpoint.decode (Bytes.to_string flipped));
  (* patch the version field and re-checksum: a valid file from a future
     format must be refused as unreadable, not misparsed *)
  let patched = Bytes.of_string (String.sub data 0 (String.length data - 4)) in
  Bytes.set_int32_le patched 8 99l;
  let body = Bytes.to_string patched in
  let tail = Bytes.create 4 in
  Bytes.set_int32_le tail 0 (Crc32.string body);
  expect_corrupt "wrong version" (fun () ->
      Checkpoint.decode (body ^ Bytes.to_string tail))

let test_container_mismatch_is_typed () =
  let h = sample_header () in
  let ok () =
    Checkpoint.ensure ~kind:"tgen" ~circuit:"s27" ~fingerprint:0xDEADBEEFl h
  in
  ok ();
  expect_mismatch "wrong kind" (fun () ->
      Checkpoint.ensure ~kind:"inject" ~circuit:"s27" ~fingerprint:0xDEADBEEFl h);
  expect_mismatch "wrong circuit" (fun () ->
      Checkpoint.ensure ~kind:"tgen" ~circuit:"x298" ~fingerprint:0xDEADBEEFl h);
  expect_mismatch "wrong fingerprint" (fun () ->
      Checkpoint.ensure ~kind:"tgen" ~circuit:"s27" ~fingerprint:1l h)

let test_load_missing_file_is_corrupt () =
  expect_corrupt "missing file" (fun () ->
      Checkpoint.load "/nonexistent/dir/never.ckpt")

let test_save_load_roundtrip () =
  let path = Filename.temp_file "bist_ckpt" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let h = sample_header () in
      Checkpoint.save ~path h;
      let h' = Checkpoint.load path in
      Alcotest.(check string) "payload survives" h.payload h'.Checkpoint.payload;
      (* truncate the file on disk: load must report Corrupt, cleanly *)
      let data = Atomic_io.read_file ~path in
      Atomic_io.write_file ~path (String.sub data 0 (String.length data / 2));
      expect_corrupt "truncated on disk" (fun () -> Checkpoint.load path))

(* codec round trips *)

let rng_words =
  QCheck.make
    ~print:(fun ws ->
      String.concat "," (Array.to_list (Array.map Int64.to_string ws)))
    QCheck.Gen.(
      map
        (fun (a, b, c, d) -> [| a; b; c; Int64.logor d 1L |])
        (quad (map Int64.of_int int) (map Int64.of_int int)
           (map Int64.of_int int) (map Int64.of_int int)))

let qcheck_rng_codec =
  QCheck.Test.make ~name:"rng codec round-trips the exact state" ~count:200
    rng_words (fun words ->
      let t = Rng.import words in
      let w = Io.writer () in
      Checkpoint.rng w t;
      let t' = Checkpoint.r_rng (Io.reader (Io.contents w)) in
      Rng.export t' = words && Rng.bits64 t = Rng.bits64 t')

let bitset_arb =
  QCheck.make
    ~print:(fun (cap, members) ->
      Printf.sprintf "cap %d, members [%s]" cap
        (String.concat ";" (List.map string_of_int members)))
    QCheck.Gen.(
      int_range 1 300 >>= fun cap ->
      list_size (int_range 0 50) (int_range 0 (cap - 1)) >>= fun members ->
      return (cap, members))

let qcheck_bitset_codec =
  QCheck.Test.make ~name:"bitset codec round-trips" ~count:200 bitset_arb
    (fun (cap, members) ->
      let set = Bitset.create cap in
      List.iter (Bitset.add set) members;
      let w = Io.writer () in
      Checkpoint.bitset w set;
      Bitset.equal set (Checkpoint.r_bitset (Io.reader (Io.contents w))))

let qcheck_tseq_codec =
  QCheck.Test.make ~name:"tseq codec round-trips" ~count:200
    (Testutil.seq ~width:5 ~max_len:20) (fun s ->
      let w = Io.writer () in
      Checkpoint.tseq w s;
      Tseq.equal s (Checkpoint.r_tseq (Io.reader (Io.contents w))))

let engine_snapshot_arb =
  let gen =
    QCheck.Gen.(
      int_range 0 5 >>= fun phase_tag ->
      int_range 1 60 >>= fun cap ->
      list_size (int_range 0 20) (int_range 0 (cap - 1)) >>= fun rem ->
      list_size (int_range 0 10) (int_range 0 (cap - 1)) >>= fun unt ->
      Testutil.seq_gen ~width:4 ~max_len:12 >>= fun t0 ->
      int_range 0 100 >>= fun rounds ->
      int_range 0 50 >>= fun accepted ->
      int_range 0 9 >>= fun fruitless ->
      int_range 1 1_000_000 >>= fun rng_seed ->
      list_size (int_range 0 8) (int_range 0 (cap - 1)) >>= fun ids ->
      int_range 0 (List.length ids) >>= fun next ->
      int_range 0 20 >>= fun attempts ->
      int_range 0 15 >>= fun proved ->
      int_range 0 15 >>= fun tests ->
      let bitset_of l =
        let s = Bitset.create cap in
        List.iter (Bitset.add s) l;
        s
      in
      let phase =
        match phase_tag with
        | 0 -> Engine.Standalone
        | 1 -> Engine.Rebaseline
        | 2 -> Engine.Embedded
        | 3 -> Engine.Directed_tail { ids = Array.of_list ids; next; attempts }
        | 4 -> Engine.Sat_tail { ids = Array.of_list ids; next; proved; tests }
        | _ -> Engine.Finalize { proved; tests }
      in
      return
        {
          Engine.phase;
          t0;
          remaining = bitset_of rem;
          untestable = bitset_of unt;
          rounds;
          accepted;
          fruitless;
          rng = Rng.create rng_seed;
        })
  in
  QCheck.make
    ~print:(fun (s : Engine.snapshot) ->
      Printf.sprintf "rounds %d, accepted %d, t0 %d vectors" s.rounds
        s.accepted (Tseq.length s.t0))
    gen

let qcheck_engine_snapshot_codec =
  QCheck.Test.make ~name:"engine snapshot codec round-trips" ~count:150
    engine_snapshot_arb (fun s ->
      let w = Io.writer () in
      Engine.encode_snapshot w s;
      let r = Io.reader (Io.contents w) in
      let s' = Engine.decode_snapshot r in
      Io.expect_end r;
      Engine.snapshot_equal s s')

let qcheck_engine_snapshot_rejects_truncation =
  QCheck.Test.make ~name:"truncated engine snapshot is Corrupt" ~count:100
    engine_snapshot_arb (fun s ->
      let w = Io.writer () in
      Engine.encode_snapshot w s;
      let data = Io.contents w in
      let cut = String.length data - 5 in
      QCheck.assume (cut > 0);
      match Engine.decode_snapshot (Io.reader (String.sub data 0 cut)) with
      | _ ->
        (* a shorter prefix can still decode; it must then fail expect_end *)
        true
      | exception Checkpoint.Corrupt _ -> true)

(* interrupt/resume bit-identity *)

let s27_universe () = Universe.collapsed (Bist_bench.S27.circuit ())

let x_universe name =
  match Bist_bench.Registry.find name with
  | Some entry -> Universe.collapsed (entry.circuit ())
  | None -> Alcotest.failf "registry circuit %s missing" name

(* Run [generate] preempting it every [polls] safe-point samples,
   resuming each time from the in-memory snapshot, until it completes.
   Returns the result and how many legs it took. *)
let generate_with_preemption ~polls ~config ~seed universe =
  let rec go resume legs =
    if legs > 10_000 then Alcotest.fail "resume loop does not converge";
    let ctl = expiring_ctl ~after_calls:polls in
    let rng = Rng.create seed in
    match Engine.generate ~config ~ctl ?resume ~rng universe with
    | t0, stats -> (t0, stats, legs)
    | exception Engine.Interrupted s -> go (Some s) (legs + 1)
  in
  go None 1

let check_engine_identity ~polls ~config ~seed universe =
  let rng = Rng.create seed in
  let ref_t0, ref_stats = Engine.generate ~config ~rng universe in
  let t0, stats, legs = generate_with_preemption ~polls ~config ~seed universe in
  Alcotest.(check bool) "was actually preempted" true (legs > 1);
  Testutil.check_seq "same T0" ref_t0 t0;
  Alcotest.(check bool) "same stats" true (ref_stats = stats)

let test_engine_resume_s27 () =
  let circuit = Bist_bench.S27.circuit () in
  (* directed budget on, so the Directed_tail phase is crossed too *)
  let config =
    { (Engine.default_config circuit) with
      Engine.directed_budget = 2; patience = 4; max_length = 200 }
  in
  List.iter
    (fun polls ->
      check_engine_identity ~polls ~config ~seed:42 (s27_universe ()))
    [ 3; 17 ]

let test_engine_resume_x298 () =
  let universe = x_universe "x298" in
  let circuit = Universe.circuit universe in
  let config =
    { (Engine.default_config circuit) with Engine.patience = 3 }
  in
  check_engine_identity ~polls:257 ~config ~seed:7 universe

(* Crossing the SAT tail: the solver polls ctl mid-solve (every 256
   conflicts), so preemptions land both between queries and inside
   them; the rewind-to-boundary rule must keep resume bit-identical,
   including the sat_proved/sat_tests counters carried in the phase. *)
let test_engine_resume_sat_tail () =
  let universe = x_universe "x298" in
  let circuit = Universe.circuit universe in
  let config =
    { (Engine.default_config circuit) with
      Engine.patience = 2; sat_budget = 6; sat_frames = 3;
      sat_conflicts = 2_000 }
  in
  let rng = Rng.create 11 in
  let _, ref_stats = Engine.generate ~config ~rng universe in
  Alcotest.(check bool) "sat tail proved something" true
    (ref_stats.Engine.sat_proved > 0);
  check_engine_identity ~polls:101 ~config ~seed:11 universe

(* A run preempted at [Finalize], after a SAT tail that proved faults,
   resumes with the tail's counters: the resumed stats equal the
   uninterrupted run's. The deadline is timed with a clock that counts
   its samples: the final simulation polls once per 62-fault group after
   the [Finalize] safe point, so the sample before those is the one to
   expire at. One worker keeps the count exact. *)
let test_engine_resume_at_finalize () =
  let universe = x_universe "x298" in
  let pool = Bist_parallel.Pool.create ~jobs:1 () in
  let config =
    { (Engine.default_config (Universe.circuit universe)) with
      Engine.sat_budget = 5; sat_frames = 6; max_length = 200 }
  in
  let samples = ref 0 in
  let counting () = incr samples; 0.0 in
  let ctl = Ctl.create ~deadline:(Deadline.after ~clock:counting 1.0) () in
  let ref_t0, ref_stats = Engine.generate ~config ~pool ~ctl ~rng:(Rng.create 7) universe in
  Alcotest.(check bool) "the SAT tail proved faults" true (ref_stats.Engine.sat_proved > 0);
  let groups = (Universe.size universe + 61) / 62 in
  let snap =
    match
      Engine.generate ~config ~pool
        ~ctl:(expiring_ctl ~after_calls:(!samples - groups - 1))
        ~rng:(Rng.create 7) universe
    with
    | _ -> Alcotest.fail "expected a preemption"
    | exception Engine.Interrupted s -> s
  in
  (match snap.Engine.phase with
  | Engine.Finalize { proved; _ } ->
    Alcotest.(check int) "the snapshot carries the proofs" ref_stats.sat_proved proved
  | _ -> Alcotest.fail "expected a snapshot at Finalize");
  let t0, stats = Engine.generate ~config ~pool ~resume:snap ~rng:(Rng.create 7) universe in
  Testutil.check_seq "same T0" ref_t0 t0;
  Alcotest.(check bool) "same stats" true (ref_stats = stats);
  (* A tag-4 checkpoint, the [Finalize] of the codec before it carried
     the counters, still decodes, with both at 0. *)
  let w = Io.writer () in
  Engine.encode_snapshot w { snap with Engine.phase = Engine.Standalone };
  let old = Bytes.of_string (Io.contents w) in
  Bytes.set old 0 '\004';
  let r = Io.reader (Bytes.to_string old) in
  let decoded = Engine.decode_snapshot r in
  Io.expect_end r;
  Alcotest.(check bool) "tag 4 decodes as Finalize with no counts" true
    (Engine.snapshot_equal decoded
       { snap with Engine.phase = Engine.Finalize { proved = 0; tests = 0 } })

let test_engine_resume_wrong_universe_is_mismatch () =
  let config =
    { (Engine.default_config (Bist_bench.S27.circuit ())) with
      Engine.patience = 2 }
  in
  let ctl = expiring_ctl ~after_calls:2 in
  let rng = Rng.create 3 in
  match Engine.generate ~config ~ctl ~rng (s27_universe ()) with
  | _ -> Alcotest.fail "expected a preemption"
  | exception Engine.Interrupted snap ->
    expect_mismatch "resume on another circuit" (fun () ->
        Engine.generate ~resume:snap ~rng:(Rng.create 3) (x_universe "x298"))

(* Compaction in legs, each under a deadline that expires a few polls
   after the leg commits its first trial. *)
let compact_in_legs ~max_trials ?resume universe t0 =
  let rec go resume legs =
    if legs > 10_000 then Alcotest.fail "resume loop does not converge";
    let ctl = expiring_ctl ~after_calls:5 in
    match Compaction.compact ~max_trials ~ctl ?resume universe t0 with
    | seq, stats -> (seq, stats, legs)
    | exception Compaction.Interrupted s -> go (Some s) (legs + 1)
  in
  go resume 1

let test_compaction_resume_identity () =
  let universe = s27_universe () in
  let rng = Rng.create 5 in
  let t0, _ = Engine.generate ~rng universe in
  let ref_seq, ref_stats = Compaction.compact ~max_trials:200 universe t0 in
  let seq, stats, legs = compact_in_legs ~max_trials:200 universe t0 in
  Alcotest.(check bool) "was actually preempted" true (legs > 1);
  Testutil.check_seq "same compacted sequence" ref_seq seq;
  Alcotest.(check bool) "same stats" true (ref_stats = stats);
  (* On x298 the must-detect set spans several 62-fault groups, so a
     ctl can expire inside the one simulation a resumed run makes to
     recompute detection times. That leg commits nothing and hands back
     the snapshot it resumed from. *)
  let universe = x_universe "x298" in
  let t0, _ = Engine.generate ~rng:(Rng.create 5) universe in
  let ref_seq, ref_stats = Compaction.compact ~max_trials:60 universe t0 in
  let first =
    match
      Compaction.compact ~max_trials:60 ~ctl:(expiring_ctl ~after_calls:5) universe t0
    with
    | _ -> Alcotest.fail "expected a preemption"
    | exception Compaction.Interrupted s -> s
  in
  (match first.Compaction.must_detect with
  | Some md ->
    Alcotest.(check bool) "more than one 62-fault group" true (Bitset.cardinal md > 62)
  | None -> Alcotest.fail "expected a snapshot past the baseline");
  (* Progress committed by an earlier phase sharing the ctl arms the
     deadline at once; it passes the first group's poll and expires at
     the second's. *)
  let ctl = expiring_ctl ~after_calls:2 in
  Ctl.note_progress ctl;
  let obs = Obs.create () in
  (match Compaction.compact ~max_trials:60 ~obs ~ctl ~resume:first universe t0 with
  | _ -> Alcotest.fail "expected a preemption"
  | exception Compaction.Interrupted s ->
    Alcotest.(check bool) "hands back the snapshot it resumed from" true
      (Compaction.snapshot_equal first s);
    let spans = List.map fst (Obs.span_seconds obs) in
    Alcotest.(check bool) "stopped inside the recomputation" true
      (List.mem "compaction.resume" spans && not (List.mem "compaction.pass" spans)));
  let seq, stats, _ = compact_in_legs ~max_trials:60 ~resume:first universe t0 in
  Testutil.check_seq "x298: same compacted sequence" ref_seq seq;
  Alcotest.(check bool) "x298: same stats" true (ref_stats = stats)

let test_compaction_snapshot_codec () =
  let universe = s27_universe () in
  let rng = Rng.create 5 in
  let t0, _ = Engine.generate ~rng universe in
  let ctl = expiring_ctl ~after_calls:4 in
  match Compaction.compact ~ctl universe t0 with
  | _ -> Alcotest.fail "expected a preemption"
  | exception Compaction.Interrupted s ->
    let w = Io.writer () in
    Compaction.encode_snapshot w s;
    let r = Io.reader (Io.contents w) in
    let s' = Compaction.decode_snapshot r in
    Io.expect_end r;
    Alcotest.(check bool) "round-trips" true (Compaction.snapshot_equal s s')

let test_campaign_resume_identity () =
  let circuit = Bist_bench.S27.circuit () in
  let config = { Campaign.default_config with Campaign.count = 40 } in
  let reference = Campaign.run ~config ~name:"s27" circuit in
  let rec go resume legs =
    if legs > 10_000 then Alcotest.fail "resume loop does not converge";
    let ctl = expiring_ctl ~after_calls:2 in
    match Campaign.run ~config ~ctl ?resume ~name:"s27" circuit with
    | c -> (c, legs)
    | exception Campaign.Interrupted trials -> go (Some trials) (legs + 1)
  in
  let c, legs = go None 1 in
  Alcotest.(check bool) "was actually preempted" true (legs > 1);
  Alcotest.(check int) "same trial count"
    (List.length reference.Campaign.trials)
    (List.length c.Campaign.trials);
  Alcotest.(check bool) "identical trials" true
    (reference.Campaign.trials = c.Campaign.trials);
  Alcotest.(check bool) "identical tallies" true
    ( reference.Campaign.corrected = c.Campaign.corrected
    && reference.Campaign.detected = c.Campaign.detected
    && reference.Campaign.benign = c.Campaign.benign
    && reference.Campaign.escaped = c.Campaign.escaped );
  (* trial codec round-trips the whole list *)
  let w = Io.writer () in
  Campaign.encode_trials w c.Campaign.trials;
  let r = Io.reader (Io.contents w) in
  let trials' = Campaign.decode_trials r in
  Io.expect_end r;
  Alcotest.(check bool) "trial codec round-trips" true
    (c.Campaign.trials = trials');
  (* rebuild reproduces the campaign record without re-running *)
  let rebuilt =
    Campaign.rebuild ~name:"s27" ~config ~sync_found:c.Campaign.sync_found
      c.Campaign.trials
  in
  Alcotest.(check bool) "rebuild matches" true
    (rebuilt.Campaign.escaped = c.Campaign.escaped
    && rebuilt.Campaign.corrected = c.Campaign.corrected)

let test_campaign_resume_wrong_config_is_mismatch () =
  let circuit = Bist_bench.S27.circuit () in
  let config = { Campaign.default_config with Campaign.count = 30 } in
  let ctl = expiring_ctl ~after_calls:2 in
  match Campaign.run ~config ~ctl ~name:"s27" circuit with
  | _ -> Alcotest.fail "expected a preemption"
  | exception Campaign.Interrupted trials ->
    Alcotest.(check bool) "some trials completed" true (trials <> []);
    expect_mismatch "different seed" (fun () ->
        Campaign.run
          ~config:{ config with Campaign.seed = config.Campaign.seed + 1 }
          ~resume:trials ~name:"s27" circuit)

let test_procedure1_cancel_is_immediate () =
  let universe = s27_universe () in
  let t0 = Bist_bench.S27.t0 () in
  let cancel = Cancel.create () in
  Cancel.request cancel;
  let ctl = Ctl.create ~cancel () in
  Alcotest.(check bool) "Preempted before any target" true
    (match
       Bist_core.Procedure1.run ~ctl ~rng:(Rng.create 1) ~n:2 ~t0 universe
     with
    | _ -> false
    | exception Ctl.Preempted Ctl.Cancelled -> true)

let suite =
  [
    Alcotest.test_case "crc32 known vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "atomic write round-trip" `Quick test_atomic_write_roundtrip;
    Alcotest.test_case "deadline with fake clock" `Quick test_deadline_fake_clock;
    Alcotest.test_case "deadline rejects non-positive" `Quick
      test_deadline_rejects_nonpositive;
    Alcotest.test_case "cancel crosses domains" `Quick test_cancel_across_domains;
    Alcotest.test_case "deadline gated on progress" `Quick
      test_ctl_progress_gates_deadline;
    Alcotest.test_case "cancel is immediate" `Quick test_ctl_cancel_immediate;
    Alcotest.test_case "container round-trip" `Quick test_container_roundtrip;
    Alcotest.test_case "corruption is typed" `Quick
      test_container_corruption_is_typed;
    Alcotest.test_case "mismatch is typed" `Quick test_container_mismatch_is_typed;
    Alcotest.test_case "missing file is Corrupt" `Quick
      test_load_missing_file_is_corrupt;
    Alcotest.test_case "save/load round-trip" `Quick test_save_load_roundtrip;
    qcheck qcheck_rng_codec;
    qcheck qcheck_bitset_codec;
    qcheck qcheck_tseq_codec;
    qcheck qcheck_engine_snapshot_codec;
    qcheck qcheck_engine_snapshot_rejects_truncation;
    Alcotest.test_case "engine interrupt/resume is bit-identical (s27)" `Slow
      test_engine_resume_s27;
    Alcotest.test_case "engine interrupt/resume is bit-identical (x298)" `Slow
      test_engine_resume_x298;
    Alcotest.test_case "engine interrupt/resume crosses the SAT tail" `Slow
      test_engine_resume_sat_tail;
    Alcotest.test_case "engine resume at Finalize keeps the SAT counts" `Slow
      test_engine_resume_at_finalize;
    Alcotest.test_case "engine resume on wrong circuit is Mismatch" `Quick
      test_engine_resume_wrong_universe_is_mismatch;
    Alcotest.test_case "compaction interrupt/resume is bit-identical" `Slow
      test_compaction_resume_identity;
    Alcotest.test_case "compaction snapshot codec" `Quick
      test_compaction_snapshot_codec;
    Alcotest.test_case "campaign interrupt/resume is identical" `Slow
      test_campaign_resume_identity;
    Alcotest.test_case "campaign resume under wrong config is Mismatch" `Quick
      test_campaign_resume_wrong_config_is_mismatch;
    Alcotest.test_case "procedure1 cancel is immediate" `Quick
      test_procedure1_cancel_is_immediate;
  ]
