module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Fsim = Bist_fault.Fsim
module Obs = Bist_obs.Obs
module Ctl = Bist_resilience.Ctl
module Checkpoint = Bist_resilience.Checkpoint

type stats = {
  trials : int;
  accepted : int;
  initial_length : int;
  final_length : int;
}

type snapshot = {
  seq : Tseq.t;
  must_detect : Bitset.t option;
  block : int;
  start : int;
  trials : int;
  accepted : int;
  initial_length : int;
}

exception Interrupted of snapshot

let () =
  Printexc.register_printer (function
    | Interrupted s ->
      Some
        (Printf.sprintf
           "Compaction.Interrupted (%d of %d vectors, %d trials)"
           (Tseq.length s.seq) s.initial_length s.trials)
    | _ -> None)

(* Evenly-spaced sample of a fault set; a candidate that loses any
   sampled fault can be rejected without the full re-simulation. *)
let sample_of set cap =
  let total = Bitset.cardinal set in
  if total <= cap then set
  else begin
    let sample = Bitset.create (Bitset.capacity set) in
    let stride = total / cap in
    let i = ref 0 in
    Bitset.iter
      (fun id ->
        if !i mod stride = 0 then Bitset.add sample id;
        incr i)
      set;
    sample
  end

(* The members of [set] whose detection time in [det] is at least
   [start]. *)
let detected_from det set start =
  let late = Bitset.create (Bitset.capacity set) in
  Bitset.iter (fun id -> if det.(id) >= start then Bitset.add late id) set;
  late

let remove_block seq ~start ~len =
  let n = Tseq.length seq in
  let stop = min n (start + len) in
  if start = 0 then
    if stop >= n then Tseq.empty (Tseq.width seq) else Tseq.sub seq ~lo:stop ~hi:(n - 1)
  else if stop >= n then Tseq.sub seq ~lo:0 ~hi:(start - 1)
  else Tseq.concat (Tseq.sub seq ~lo:0 ~hi:(start - 1)) (Tseq.sub seq ~lo:stop ~hi:(n - 1))

let compact ?initial_block ?(max_trials = max_int) ?(obs = Obs.null) ?pool ?ctl
    ?resume universe seq =
  let initial_length, current, trials, accepted =
    match resume with
    | Some s -> (s.initial_length, ref s.seq, ref s.trials, ref s.accepted)
    | None -> (Tseq.length seq, ref seq, ref 0, ref 0)
  in
  let committed () =
    match ctl with None -> () | Some c -> Ctl.note_progress c
  in
  (* Before the baseline simulation has committed, the snapshot is just
     the input sequence ([must_detect = None]); block and cursor are
     recomputed on resume exactly as on a fresh start. *)
  let pre_baseline_snapshot () =
    {
      seq = !current;
      must_detect = None;
      block = 0;
      start = 0;
      trials = !trials;
      accepted = !accepted;
      initial_length;
    }
  in
  (* [det.(id)] is the detection time of must-detect fault [id] in
     [!current]. Snapshots do not carry it: a resumed run recomputes it
     with one simulation, which commits nothing, so a preemption there
     hands back the snapshot the run resumed from. *)
  let must_detect, det =
    match resume with
    | Some ({ must_detect = Some md; _ } as s) -> (
      let md = Bitset.copy md in
      match
        Obs.span obs ~cat:"compaction" "compaction.resume" (fun () ->
            Fsim.run ~obs ?pool ?ctl ~targets:md universe !current)
      with
      | o -> (md, o.Fsim.det_time)
      | exception Ctl.Preempted _ -> raise (Interrupted s))
    | _ -> (
      (match ctl with
      | Some c when Ctl.stop_reason c <> None ->
        raise (Interrupted (pre_baseline_snapshot ()))
      | _ -> ());
      match
        Obs.span obs ~cat:"compaction" "compaction.baseline" (fun () ->
            Fsim.run ~obs ?pool ?ctl universe !current)
      with
      | o ->
        committed ();
        (o.Fsim.detected, o.Fsim.det_time)
      | exception Ctl.Preempted _ ->
        raise (Interrupted (pre_baseline_snapshot ())))
  in
  let must_sample = sample_of must_detect 800 in
  let block = ref 0 and start = ref 0 in
  (match resume with
  | Some ({ must_detect = Some _; _ } as s) ->
    block := s.block;
    start := s.start
  | _ ->
    block :=
      (match initial_block with
      | Some b -> max 1 b
      | None -> max 1 (initial_length / 8));
    start := Tseq.length !current - !block);
  let trial_snapshot () =
    {
      seq = !current;
      must_detect = Some (Bitset.copy must_detect);
      block = !block;
      start = !start;
      trials = !trials;
      accepted = !accepted;
      initial_length;
    }
  in
  (* Two-stage check: the cheap sampled rejection filter first, the
     full target set only when the sample survives. The candidate keeps
     the prefix [0, start) of [!current], so every fault detected before
     [start] is detected at the same step; both stages simulate only the
     faults detected at or after [start]. On success the simulated
     faults' detection times in the candidate are copied into [det]. *)
  let keeps_coverage candidate ~start =
    let late = detected_from det must_detect start in
    let late_sample = detected_from det must_sample start in
    let simulate targets = Fsim.run ~obs ?pool ?ctl ~targets universe candidate in
    let full_check () =
      Bitset.is_empty late
      ||
      let o = simulate late in
      Bitset.subset late o.Fsim.detected
      && (Bitset.iter (fun id -> det.(id) <- o.Fsim.det_time.(id)) late;
          true)
    in
    (* A sample as large as the late set is the late set: one stage. *)
    if Bitset.cardinal late_sample = Bitset.cardinal late then full_check ()
    else
      Bitset.subset late_sample (simulate late_sample).Fsim.detected
      && full_check ()
  in
  while !block >= 1 && !trials < max_trials do
    (* Back-to-front scan at the current granularity: one span per pass,
       whose args report what the pass achieved (evaluated at exit). *)
    let pass_block = !block in
    let pass_trials = !trials and pass_accepted = !accepted in
    Obs.span obs ~cat:"compaction" "compaction.pass"
      ~args:(fun () ->
        [ ("block", string_of_int pass_block);
          ("trials", string_of_int (!trials - pass_trials));
          ("accepted", string_of_int (!accepted - pass_accepted));
          ("length", string_of_int (Tseq.length !current)) ])
      (fun () ->
        while !start >= 0 && !trials < max_trials do
          (match ctl with
          | Some c when Ctl.stop_reason c <> None ->
            raise (Interrupted (trial_snapshot ()))
          | _ -> ());
          (* A trial mutates [current] and [det] only after its
             simulations, so a [Preempted] escaping mid-trial rewinds to
             the trial entry by restoring the counter. *)
          let trials_entry = !trials in
          (try
             let candidate = remove_block !current ~start:!start ~len:!block in
             incr trials;
             if Tseq.length candidate > 0 && keeps_coverage candidate ~start:!start
             then begin
               incr accepted;
               current := candidate
             end;
             committed ()
           with Ctl.Preempted _ ->
             trials := trials_entry;
             raise (Interrupted (trial_snapshot ())));
          start := !start - !block
        done);
    block := (if !block = 1 then 0 else !block / 2);
    if !block >= 1 then start := Tseq.length !current - !block
  done;
  Obs.count obs ~by:!trials "compaction.trials";
  Obs.count obs ~by:!accepted "compaction.accepted";
  ( !current,
    {
      trials = !trials;
      accepted = !accepted;
      initial_length;
      final_length = Tseq.length !current;
    } )

(* Snapshot codec — the compaction section of a ["tgen"] checkpoint. *)

module Io = Checkpoint.Io

let encode_snapshot w s =
  Checkpoint.tseq w s.seq;
  Io.option w Checkpoint.bitset s.must_detect;
  Io.u32 w s.block;
  Io.u32 w s.start;
  Io.u32 w s.trials;
  Io.u32 w s.accepted;
  Io.u32 w s.initial_length

let decode_snapshot r =
  let seq = Checkpoint.r_tseq r in
  let must_detect = Io.r_option r Checkpoint.r_bitset in
  let block = Io.r_u32 r in
  let start = Io.r_u32 r in
  let trials = Io.r_u32 r in
  let accepted = Io.r_u32 r in
  let initial_length = Io.r_u32 r in
  { seq; must_detect; block; start; trials; accepted; initial_length }

let snapshot_equal a b =
  Tseq.equal a.seq b.seq
  && (match (a.must_detect, b.must_detect) with
     | None, None -> true
     | Some x, Some y -> Bitset.equal x y
     | _ -> false)
  && a.block = b.block && a.start = b.start && a.trials = b.trials
  && a.accepted = b.accepted && a.initial_length = b.initial_length
