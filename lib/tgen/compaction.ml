module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Fsim = Bist_fault.Fsim
module Universe = Bist_fault.Universe
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

(* [seq] from step [b] on. *)
let suffix seq b =
  let n = Tseq.length seq in
  if b = 0 then seq
  else if b >= n then Tseq.empty (Tseq.width seq)
  else Tseq.sub seq ~lo:b ~hi:(n - 1)

(* The frontier store of one pass: the states of the current sequence at
   some of the pass's block boundaries, positions ascending. A boundary
   is a position [r + j * block] (j >= 1) of the grid the pass's trials
   start on; the store keeps every [k]-th of them, for the smallest
   power of two [k] whose frontiers together take no more bytes than
   the fault-free trace of the current sequence, [length * nodes]. The
   reset state at step 0 needs no storing. *)
let store_bytes entries = List.fold_left (fun a (_, f) -> a + Fsim.frontier_bytes f) 0 entries

(* The boundaries of the grid [r + j * block <= top] to store, [cost p]
   the bytes of the frontier at [p]: none when not even one fits. *)
let stored_boundaries ~cost ~cap ~r ~block ~top =
  let grid =
    List.filter (fun p -> p > 0) (List.init (((top - r) / block) + 1) (fun j -> r + (j * block)))
  in
  let rec go k =
    match List.filteri (fun i _ -> (i + 1) mod k = 0) grid with
    | [] -> []
    | picked when List.fold_left (fun a p -> a + cost p) 0 picked <= cap -> picked
    | _ -> go (2 * k)
  in
  go 1

(* Every other entry, from the first, until the store fits. *)
let rec thin entries ~cap =
  if store_bytes entries <= cap then entries
  else
    match entries with
    | [] | [ _ ] -> []
    | _ -> thin (List.filteri (fun i _ -> i mod 2 = 0) entries) ~cap

let compact ?initial_block ?(max_trials = max_int) ?(obs = Obs.null) ?pool ?ctl
    ?resume ?baseline universe seq =
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
     hands back the snapshot the run resumed from. A fresh run takes both
     from [baseline] when the caller has simulated the sequence already;
     [det] is updated in place, so it is a copy. *)
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
    | _ when baseline <> None ->
      let o = Option.get baseline in
      if o.Fsim.universe != universe || not (Tseq.equal o.Fsim.sequence !current) then
        invalid_arg "Compaction.compact: baseline simulated for another universe or sequence";
      (o.Fsim.detected, Array.copy o.Fsim.det_time)
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
  let nodes = Bist_circuit.Netlist.size (Universe.circuit universe) in
  let cap () = Tseq.length !current * nodes in
  let store = ref [] and peak = ref 0 and rejoined = ref 0 in
  (* The pass's frontiers, recorded by one simulation of [!current] on
     the must-detect faults; the store derives from the sequence and
     [det] alone, so a resumed pass records the same one. *)
  let record_store () =
    let len = Tseq.length !current and b = !block in
    let held = Array.make (len + 2) 0 in
    Bitset.iter (fun id -> held.(det.(id)) <- held.(det.(id)) + 1) must_detect;
    for p = len - 1 downto 0 do
      held.(p) <- held.(p) + held.(p + 1)
    done;
    let positions =
      stored_boundaries
        ~cost:(fun p -> Fsim.frontier_cost universe ~faults:held.(p))
        ~cap:(cap ()) ~r:(!start mod b) ~block:b ~top:(len - b)
    in
    if positions <> [] then begin
      let record = Array.of_list positions in
      let o =
        Obs.span obs ~cat:"compaction" "compaction.record" (fun () ->
            Fsim.run ~obs ?pool ?ctl ~targets:must_detect ~record universe !current)
      in
      store := List.mapi (fun i p -> (p, o.Fsim.frontiers.(i))) positions;
      peak := max !peak (store_bytes !store)
    end
  in
  (* Two-stage check: the cheap sampled rejection filter first, the
     full target set only when the sample survives. The candidate keeps
     the prefix [0, start) of [!current], so every fault detected before
     [start] is detected at the same step; both stages simulate only the
     faults detected at or after [start], from the stored frontier
     nearest below [start] (or from reset). From [start] on the candidate
     replays [!current] one block later, so a fault whose state, and the
     fault-free state, equal [!current]'s one block later at a stored
     boundary, which [!current] had not detected before, is detected
     exactly one block earlier than in [!current] and retires there
     ({!Fsim.rejoin}). On success the simulated faults' detection times
     in the candidate are copied into [det], and the store's boundaries
     above [start] move down one block: each takes the faults the
     candidate still simulated there from the full check's recording,
     and the rejoined ones from the boundary one block up. *)
  let keeps_coverage candidate ~start =
    let b = !block in
    let late = detected_from det must_detect start in
    let late_sample = detected_from det must_sample start in
    let below = List.filter (fun (p, _) -> p <= start) !store in
    let from = List.fold_left (fun _ (_, f) -> Some f) None below in
    let base = match from with Some f -> Fsim.frontier_step f | None -> 0 in
    let above = List.filter (fun (p, _) -> p >= start + b && p < Tseq.length !current) !store in
    let rejoin =
      if above = [] then None
      else
        Some { Fsim.states = Array.of_list (List.map snd above); shift = b; det_time = det }
    in
    let tail = suffix candidate base in
    let simulate ?record targets =
      let o = Fsim.run ~obs ?pool ?ctl ~targets ?from ?record ?rejoin universe tail in
      rejoined := !rejoined + o.Fsim.rejoined;
      o
    in
    let full_check () =
      if Bitset.is_empty late then begin
        (* Nothing simulated: the boundaries above [start] go. *)
        store := below;
        true
      end
      else begin
        let moved = List.filter (fun (p, _) -> p >= start + (2 * b)) above in
        let record = Array.of_list (List.map (fun (p, _) -> p - b) moved) in
        let o = simulate ~record late in
        Bitset.subset late o.Fsim.detected
        && begin
          Bitset.iter (fun id -> det.(id) <- o.Fsim.det_time.(id)) late;
          let shifted =
            List.mapi
              (fun i (p, old) ->
                let q = p - b in
                (q, Fsim.frontier_union o.Fsim.frontiers.(i) old ~keep:(fun id -> det.(id) >= q)))
              moved
          in
          store := below @ shifted;
          true
        end
      end
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
        store := [];
        (match if !start >= 0 && not (Bitset.is_empty must_detect) then record_store () with
        | () -> ()
        | exception Ctl.Preempted _ -> raise (Interrupted (trial_snapshot ())));
        while !start >= 0 && !trials < max_trials do
          (match ctl with
          | Some c when Ctl.stop_reason c <> None ->
            raise (Interrupted (trial_snapshot ()))
          | _ -> ());
          (* A trial mutates [current], [det] and the store only after
             its simulations, so a [Preempted] escaping mid-trial rewinds
             to the trial entry by restoring the counter. *)
          let trials_entry = !trials in
          (try
             let candidate = remove_block !current ~start:!start ~len:!block in
             incr trials;
             if Tseq.length candidate > 0 && keeps_coverage candidate ~start:!start
             then begin
               incr accepted;
               current := candidate;
               store := thin !store ~cap:(cap ());
               peak := max !peak (store_bytes !store)
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
  Obs.count obs ~by:!rejoined "compaction.rejoined";
  Obs.gauge obs "compaction.frontier_bytes" (float_of_int !peak);
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
