module Tseq = Bist_logic.Tseq
module Vector = Bist_logic.Vector
module Bitset = Bist_util.Bitset
module Rng = Bist_util.Rng
module Universe = Bist_fault.Universe
module Fsim = Bist_fault.Fsim
module Obs = Bist_obs.Obs
module Ctl = Bist_resilience.Ctl
module Checkpoint = Bist_resilience.Checkpoint

type config = {
  segment_length : int;
  candidates_per_round : int;
  patience : int;
  max_length : int;
  hold_options : int list;
  weighted_p : float list;
  sample_cap : int;
  directed_budget : int;
  prescreen : bool;
  sat_budget : int;
  sat_frames : int;
  sat_conflicts : int;
}

let default_config circuit =
  let ffs = Bist_circuit.Netlist.num_dffs circuit in
  let nodes = Bist_circuit.Netlist.size circuit in
  let big = nodes >= 2000 in
  {
    segment_length = max 24 (min 80 (3 * ffs));
    candidates_per_round = (if big then 5 else 8);
    patience = (if big then 6 else 10);
    max_length = 1200;
    hold_options = [ 1; 1; 2; 4; 8 ];
    weighted_p = [ 0.2; 0.35; 0.5; 0.5; 0.65; 0.8 ];
    sample_cap = 1500;
    directed_budget = 0;
    prescreen = true;
    sat_budget = 0;
    sat_frames = 8;
    sat_conflicts = Bist_sat.Satgen.default_conflicts;
  }

type stats = {
  rounds : int;
  segments_accepted : int;
  detected : int;
  total_faults : int;
  statically_untestable : int;
  sat_proved : int;
  sat_tests : int;
}

(* The resumable position inside [generate]. Every tag is a state from
   which the rest of the run is a deterministic function of the snapshot
   fields: resuming here and never having been interrupted produce the
   same bits. *)
type phase =
  | Standalone
  | Rebaseline
  | Embedded
  | Directed_tail of { ids : int array; next : int; attempts : int }
  | Sat_tail of { ids : int array; next : int; proved : int; tests : int }
  | Finalize of { proved : int; tests : int }

type snapshot = {
  phase : phase;
  t0 : Tseq.t;
  remaining : Bitset.t;
  untestable : Bitset.t;
  rounds : int;
  accepted : int;
  fruitless : int;
  rng : Rng.t;
}

exception Interrupted of snapshot

let () =
  Printexc.register_printer (function
    | Interrupted s ->
      Some
        (Printf.sprintf
           "Engine.Interrupted (T0 at %d vectors, %d faults remaining)"
           (Tseq.length s.t0)
           (Bitset.cardinal s.remaining))
    | _ -> None)

let random_segment rng ~width ~length ~p_one ~hold =
  let distinct = (length + hold - 1) / hold in
  let vectors = Array.init distinct (fun _ -> Vector.random_weighted rng width ~p_one) in
  Tseq.of_vectors (Array.init length (fun i -> vectors.(i / hold)))

let candidate config rng ~width =
  let p_one =
    List.nth config.weighted_p (Rng.int rng (List.length config.weighted_p))
  in
  let hold =
    List.nth config.hold_options (Rng.int rng (List.length config.hold_options))
  in
  random_segment rng ~width ~length:config.segment_length ~p_one ~hold

(* Evenly-spaced fault sample: classic fault sampling keeps candidate
   scoring cheap when many faults remain. *)
let sample_targets remaining cap =
  let total = Bitset.cardinal remaining in
  if total <= cap then remaining
  else begin
    let sample = Bitset.create (Bitset.capacity remaining) in
    let stride = total / cap in
    let i = ref 0 in
    Bitset.iter
      (fun id ->
        if !i mod stride = 0 then Bitset.add sample id;
        incr i)
      remaining;
    sample
  end

let rank_directed = 3
let rank_sat = 4

let phase_rank = function
  | Standalone -> 0
  | Rebaseline -> 1
  | Embedded -> 2
  | Directed_tail _ -> rank_directed
  | Sat_tail _ -> rank_sat
  | Finalize _ -> 5

let generate_with_coverage ?config ?(obs = Obs.null) ?pool ?ctl ?resume ~rng universe =
  let circuit = Universe.circuit universe in
  let config = Option.value config ~default:(default_config circuit) in
  let width = Bist_circuit.Netlist.num_inputs circuit in
  (match resume with
  | Some s ->
    if Bitset.capacity s.remaining <> Universe.size universe then
      raise
        (Checkpoint.Mismatch
           (Printf.sprintf
              "snapshot holds %d faults, universe has %d — wrong circuit or \
               fault model"
              (Bitset.capacity s.remaining)
              (Universe.size universe)));
    if Tseq.width s.t0 <> width then
      raise
        (Checkpoint.Mismatch
           (Printf.sprintf "snapshot T0 is %d inputs wide, circuit has %d"
              (Tseq.width s.t0) width))
  | None -> ());
  (* Faults the static prover marks untestable never enter the remaining
     set: Procedure 1 would otherwise burn its patience budget chasing
     faults no sequence can detect. Sound — the prover has no false
     positives — and invisible in the final coverage numbers, which come
     from a full fault simulation at the end. On resume both sets come
     from the snapshot; the prescreen is not re-run. *)
  let untestable =
    match resume with
    | Some s -> Bitset.copy s.untestable
    | None ->
      if config.prescreen then
        Obs.span obs ~cat:"engine" "engine.prescreen" (fun () ->
            (Bist_analyze.Untestable.prescreen_universe universe)
              .Bist_analyze.Untestable.untestable)
      else Bitset.create (Universe.size universe)
  in
  let remaining =
    match resume with
    | Some s -> Bitset.copy s.remaining
    | None ->
      let remaining = Bitset.create (Universe.size universe) in
      Bitset.fill remaining;
      Bitset.diff_into remaining untestable;
      remaining
  in
  let rng = match resume with Some s -> Rng.copy s.rng | None -> rng in
  let t0 = ref (match resume with Some s -> s.t0 | None -> Tseq.empty width) in
  let rounds = ref (match resume with Some s -> s.rounds | None -> 0) in
  let accepted = ref (match resume with Some s -> s.accepted | None -> 0) in
  let start_phase = match resume with Some s -> s.phase | None -> Standalone in
  let start_rank = phase_rank start_phase in
  let initial_fruitless =
    match resume with Some s -> s.fruitless | None -> 0
  in
  let snapshot ~phase ~fruitless ~rng:r =
    {
      phase;
      t0 = !t0;
      remaining = Bitset.copy remaining;
      untestable = Bitset.copy untestable;
      rounds = !rounds;
      accepted = !accepted;
      fruitless;
      rng = Rng.copy r;
    }
  in
  let interrupt ~phase ~fruitless ~rng:r =
    raise (Interrupted (snapshot ~phase ~fruitless ~rng:r))
  in
  (* Poll at a safe point where [make_snap ()] describes the exact
     current state; deadline overruns and cancellations both land here. *)
  let poll_or_interrupt ~phase ~fruitless =
    match ctl with
    | None -> ()
    | Some c ->
      if Ctl.stop_reason c <> None then interrupt ~phase ~fruitless ~rng
  in
  let committed () =
    match ctl with None -> () | Some c -> Ctl.note_progress c
  in
  (* From the re-baseline on, no fault of [remaining] is detected by
     [t0], so a fault simulation of [t0 ++ seg] on (a subset of)
     [remaining] detects what one of [seg] alone does when it starts
     from the states at the end of [t0]. [frontier] holds those states:
     recorded by the re-baseline run and by every accepted segment's
     run after it, or, on a resumed run, recomputed with one simulation
     of [t0] that commits nothing. *)
  let frontier = ref None in
  let end_frontier () =
    match !frontier with
    | Some f -> f
    | None ->
      let o =
        Obs.span obs ~cat:"engine" "engine.resume_frontier" (fun () ->
            Fsim.run ~obs ?pool ?ctl ~targets:remaining
              ~record:[| Tseq.length !t0 |] universe !t0)
      in
      frontier := Some o.Fsim.frontiers.(0);
      o.Fsim.frontiers.(0)
  in
  (* Append [seg] to [t0]: simulate it from the end of [t0] on the
     remaining faults, drop the ones it detects, and keep the states at
     the new end. *)
  let accept seg =
    let full = Tseq.concat !t0 seg in
    let outcome =
      Fsim.run ~obs ?pool ?ctl ~targets:remaining ~from:(end_frontier ())
        ~record:[| Tseq.length full |] universe seg
    in
    t0 := full;
    frontier := Some outcome.Fsim.frontiers.(0);
    Bitset.diff_into remaining outcome.Fsim.detected
  in
  (* One greedy phase: propose candidates, score them on (a sample of)
     the remaining faults, keep the best, update the remaining set with a
     full re-simulation of the accepted segment. [embed] controls whether
     candidates are scored standalone (cheap) or appended to T0 (catches
     faults that need more warm-up than one segment; sound either way by
     ternary monotonicity). *)
  let phase_loop ~tag ~embed ~patience ~candidates_per_round ~fruitless0 =
    let round () =
      incr rounds;
      let eval_targets = sample_targets remaining config.sample_cap in
      let best = ref None in
      for _ = 1 to candidates_per_round do
        let seg = candidate config rng ~width in
        let from = if embed then Some (end_frontier ()) else None in
        let outcome =
          Fsim.run ~obs ?pool ?ctl ~targets:eval_targets ?from universe seg
        in
        let gain = Bitset.cardinal outcome.Fsim.detected in
        match !best with
        | Some (best_gain, _, _) when best_gain >= gain -> ()
        | _ -> if gain > 0 then best := Some (gain, seg, outcome)
      done;
      match !best with
      | None -> None
      | Some (gain, seg, scoring) ->
        incr accepted;
        if embed then accept seg
        else begin
          (* Unsampled, the winner's scoring run is the full
             re-simulation itself. *)
          let outcome =
            if eval_targets == remaining then scoring
            else Fsim.run ~obs ?pool ?ctl ~targets:remaining universe seg
          in
          t0 := Tseq.concat !t0 seg;
          Bitset.diff_into remaining outcome.Fsim.detected
        end;
        Some gain
    in
    let fruitless = ref fruitless0 in
    while
      !fruitless < patience
      && Tseq.length !t0 < config.max_length
      && not (Bitset.is_empty remaining)
    do
      poll_or_interrupt ~phase:tag ~fruitless:!fruitless;
      (* A round mutates [t0]/[remaining] only after its last fault
         simulation, so a [Preempted] escaping mid-round leaves them at
         their round-entry values; restoring the counters and the
         round-entry rng makes the snapshot exactly the round boundary,
         and the resumed run replays the round bit-identically. *)
      let rng_entry = Rng.copy rng in
      let rounds_entry = !rounds and accepted_entry = !accepted in
      let this_round = !rounds + 1 in
      match
        Obs.span obs ~cat:"engine" "engine.round"
          ~args:(fun () ->
            [ ("round", string_of_int this_round);
              ("embed", string_of_bool embed);
              ("remaining", string_of_int (Bitset.cardinal remaining)) ])
          round
      with
      | None ->
        incr fruitless;
        committed ()
      | Some _ ->
        fruitless := 0;
        committed ()
      | exception Ctl.Preempted _ ->
        rounds := rounds_entry;
        accepted := accepted_entry;
        interrupt ~phase:tag ~fruitless:!fruitless ~rng:rng_entry
    done
  in
  if start_rank <= phase_rank Standalone then
    Obs.span obs ~cat:"engine" "engine.selection"
      ~args:(fun () -> [ ("embed", "false") ])
      (fun () ->
        phase_loop ~tag:Standalone ~embed:false ~patience:config.patience
          ~candidates_per_round:config.candidates_per_round
          ~fruitless0:(if start_phase = Standalone then initial_fruitless else 0));
  (* Re-baseline against the concatenated T0 (embedding can only add
     detections), then refine with embedded scoring. *)
  if start_rank <= phase_rank Rebaseline then begin
    poll_or_interrupt ~phase:Rebaseline ~fruitless:0;
    match
      Obs.span obs ~cat:"engine" "engine.rebaseline" (fun () ->
          Fsim.run ~obs ?pool ?ctl ~record:[| Tseq.length !t0 |] universe !t0)
    with
    | embedded ->
      Bitset.clear remaining;
      Bitset.fill remaining;
      Bitset.diff_into remaining untestable;
      Bitset.diff_into remaining embedded.Fsim.detected;
      frontier := Some embedded.Fsim.frontiers.(0);
      committed ()
    | exception Ctl.Preempted _ -> interrupt ~phase:Rebaseline ~fruitless:0 ~rng
  end;
  if start_rank <= phase_rank Embedded then
    Obs.span obs ~cat:"engine" "engine.selection"
      ~args:(fun () -> [ ("embed", "true") ])
      (fun () ->
        phase_loop ~tag:Embedded ~embed:true
          ~patience:(max 4 (config.patience / 2))
          ~candidates_per_round:(max 3 (config.candidates_per_round / 2))
          ~fruitless0:(if start_phase = Embedded then initial_fruitless else 0));
  (* Directed tail: attack a few of the surviving faults one by one with
     the genetic search, seeding each attempt with the fault-free and the
     target's states at the end of the current T0, which the frontier
     holds: every target is in [remaining], so T0 leaves it undetected. *)
  if config.directed_budget > 0 && start_rank <= rank_directed then
    Obs.span obs ~cat:"engine" "engine.directed"
      ~args:(fun () ->
        [ ("budget", string_of_int config.directed_budget);
          ("remaining", string_of_int (Bitset.cardinal remaining)) ])
      (fun () ->
        let target_ids, next0, attempts0 =
          match start_phase with
          | Directed_tail { ids; next; attempts } -> (ids, next, attempts)
          | _ ->
            let target_ids = Array.of_list (Bitset.elements remaining) in
            (* Hardest targets first: SCOAP-expensive faults benefit most
               from the genetic search, and the easy stragglers are often
               swept up for free by the segments it produces. *)
            let scoap = Bist_analyze.Scoap.compute circuit in
            Directed.order_hardest_first scoap universe target_ids;
            (target_ids, 0, 0)
        in
        let attempts = ref attempts0 in
        let i = ref next0 in
        while !i < Array.length target_ids do
          let directed_at next =
            Directed_tail { ids = target_ids; next; attempts = !attempts }
          in
          poll_or_interrupt ~phase:(directed_at !i) ~fruitless:0;
          let id = target_ids.(!i) in
          if
            !attempts < config.directed_budget
            && Bitset.mem remaining id
            && Tseq.length !t0 < config.max_length
          then begin
            let rng_entry = Rng.copy rng in
            let attempts_entry = !attempts and accepted_entry = !accepted in
            try
              incr attempts;
              let fault = Universe.get universe id in
              let f = end_frontier () in
              let outcome =
                Directed.search ~obs ~rng ~good:(Fsim.frontier_good f)
                  ~faulty:(Fsim.frontier_state f id) circuit fault
              in
              (match outcome.Directed.segment with
              | None -> ()
              | Some seg ->
                incr accepted;
                accept seg);
              committed ()
            with Ctl.Preempted _ ->
              attempts := attempts_entry;
              accepted := accepted_entry;
              interrupt
                ~phase:
                  (Directed_tail
                     { ids = target_ids; next = !i; attempts = attempts_entry })
                ~fruitless:0 ~rng:rng_entry
          end;
          incr i
        done);
  (* SAT tail: bounded-exact queries on whatever survived every search
     phase. An UNSAT answer removes the fault from [remaining] — no
     sequence of length <= sat_frames detects it, and in practice those
     faults never fall to search either. A model is decoded into an
     input sequence, validated against the fault simulator inside
     {!Bist_sat.Satgen}, and appended to T0: by ternary monotonicity a
     sequence that detects from the all-X state still detects embedded
     after T0 (the same argument the standalone phase rests on). The
     solver is deterministic and consumes no rng, so preempting between
     faults and resuming stays bit-identical. *)
  let sat_proved = ref 0 and sat_tests = ref 0 in
  (match start_phase with
  | Sat_tail { proved; tests; _ } | Finalize { proved; tests } ->
    sat_proved := proved;
    sat_tests := tests
  | _ -> ());
  if config.sat_budget > 0 && start_rank <= rank_sat then
    Obs.span obs ~cat:"engine" "engine.sat_tail"
      ~args:(fun () ->
        [ ("budget", string_of_int config.sat_budget);
          ("frames", string_of_int config.sat_frames);
          ("remaining", string_of_int (Bitset.cardinal remaining)) ])
      (fun () ->
        let target_ids, next0 =
          match start_phase with
          | Sat_tail { ids; next; _ } -> (ids, next)
          | _ ->
            (* Fault-id order: deterministic and independent of the
               search history that produced the survivors. *)
            let ids = Array.of_list (Bitset.elements remaining) in
            let n = min config.sat_budget (Array.length ids) in
            (Array.sub ids 0 n, 0)
        in
        let view =
          lazy (Bist_sat.Cnf.view ~frames:config.sat_frames circuit)
        in
        let i = ref next0 in
        while !i < Array.length target_ids do
          let sat_at next =
            Sat_tail
              { ids = target_ids; next; proved = !sat_proved;
                tests = !sat_tests }
          in
          poll_or_interrupt ~phase:(sat_at !i) ~fruitless:0;
          let id = target_ids.(!i) in
          (* Unlike the search phases, the SAT tail ignores
             [max_length]: the greedy budget being spent is exactly the
             situation the tail exists for, proofs do not grow [T0] at
             all, and the overshoot from appended tests is bounded by
             [sat_budget * sat_frames] vectors. *)
          if Bitset.mem remaining id then begin
            let proved_entry = !sat_proved
            and tests_entry = !sat_tests
            and accepted_entry = !accepted in
            try
              let fault = Universe.get universe id in
              (match
                 Bist_sat.Satgen.solve_fault ~obs ?ctl
                   ~max_conflicts:config.sat_conflicts (Lazy.force view)
                   fault
               with
              | Bist_sat.Satgen.Unreachable | Bist_sat.Satgen.Blocked ->
                incr sat_proved;
                Bitset.remove remaining id
              | Bist_sat.Satgen.Test seg ->
                incr sat_tests;
                incr accepted;
                accept seg
              | Bist_sat.Satgen.Unknown -> ());
              committed ()
            with Ctl.Preempted _ ->
              sat_proved := proved_entry;
              sat_tests := tests_entry;
              accepted := accepted_entry;
              interrupt ~phase:(sat_at !i) ~fruitless:0 ~rng
          end;
          incr i
        done);
  let finalize = Finalize { proved = !sat_proved; tests = !sat_tests } in
  poll_or_interrupt ~phase:finalize ~fruitless:0;
  let final =
    match
      Obs.span obs ~cat:"engine" "engine.final_fsim" (fun () ->
          Fsim.run ~obs ?pool ?ctl universe !t0)
    with
    | final -> final
    | exception Ctl.Preempted _ -> interrupt ~phase:finalize ~fruitless:0 ~rng
  in
  Obs.count obs ~by:!rounds "engine.rounds";
  Obs.count obs ~by:!accepted "engine.segments_accepted";
  Obs.gauge obs "engine.t0_length" (float_of_int (Tseq.length !t0));
  ( !t0,
    {
      rounds = !rounds;
      segments_accepted = !accepted;
      detected = Bitset.cardinal final.Fsim.detected;
      total_faults = Universe.size universe;
      statically_untestable = Bitset.cardinal untestable;
      sat_proved = !sat_proved;
      sat_tests = !sat_tests;
    },
    final )

let generate ?config ?obs ?pool ?ctl ?resume ~rng universe =
  let t0, stats, _ = generate_with_coverage ?config ?obs ?pool ?ctl ?resume ~rng universe in
  (t0, stats)

(* Snapshot codec — the [tgen] checkpoint payload section owned by the
   engine. Decoding validates tags and index bounds; anything off raises
   {!Checkpoint.Corrupt} via the bounded reader. *)

module Io = Checkpoint.Io

let encode_snapshot w s =
  (match s.phase with
  | Standalone -> Io.u8 w 0
  | Rebaseline -> Io.u8 w 1
  | Embedded -> Io.u8 w 2
  | Directed_tail { ids; next; attempts } ->
    Io.u8 w 3;
    Io.u32 w (Array.length ids);
    Array.iter (Io.u32 w) ids;
    Io.u32 w next;
    Io.u32 w attempts
  | Finalize { proved; tests } ->
    Io.u8 w 6;
    Io.u32 w proved;
    Io.u32 w tests
  | Sat_tail { ids; next; proved; tests } ->
    Io.u8 w 5;
    Io.u32 w (Array.length ids);
    Array.iter (Io.u32 w) ids;
    Io.u32 w next;
    Io.u32 w proved;
    Io.u32 w tests);
  Checkpoint.tseq w s.t0;
  Checkpoint.bitset w s.remaining;
  Checkpoint.bitset w s.untestable;
  Io.u32 w s.rounds;
  Io.u32 w s.accepted;
  Io.u32 w s.fruitless;
  Checkpoint.rng w s.rng

let decode_snapshot r =
  let phase =
    match Io.r_u8 r with
    | 0 -> Standalone
    | 1 -> Rebaseline
    | 2 -> Embedded
    | 3 ->
      let n = Io.r_u32 r in
      let ids = Array.init n (fun _ -> Io.r_u32 r) in
      let next = Io.r_u32 r in
      let attempts = Io.r_u32 r in
      if next > n then
        raise
          (Checkpoint.Corrupt
             (Printf.sprintf "directed cursor %d past %d targets" next n));
      Directed_tail { ids; next; attempts }
    | 4 ->
      (* A [Finalize] written before the tag carried the SAT counters. *)
      Finalize { proved = 0; tests = 0 }
    | 5 ->
      let n = Io.r_u32 r in
      let ids = Array.init n (fun _ -> Io.r_u32 r) in
      let next = Io.r_u32 r in
      let proved = Io.r_u32 r in
      let tests = Io.r_u32 r in
      if next > n then
        raise
          (Checkpoint.Corrupt
             (Printf.sprintf "sat cursor %d past %d targets" next n));
      Sat_tail { ids; next; proved; tests }
    | 6 ->
      let proved = Io.r_u32 r in
      let tests = Io.r_u32 r in
      Finalize { proved; tests }
    | tag ->
      raise (Checkpoint.Corrupt (Printf.sprintf "unknown engine phase tag %d" tag))
  in
  let t0 = Checkpoint.r_tseq r in
  let remaining = Checkpoint.r_bitset r in
  let untestable = Checkpoint.r_bitset r in
  let rounds = Io.r_u32 r in
  let accepted = Io.r_u32 r in
  let fruitless = Io.r_u32 r in
  let rng = Checkpoint.r_rng r in
  { phase; t0; remaining; untestable; rounds; accepted; fruitless; rng }

let snapshot_equal a b =
  let phase_equal =
    match (a.phase, b.phase) with
    | Standalone, Standalone | Rebaseline, Rebaseline | Embedded, Embedded -> true
    | Finalize x, Finalize y -> x.proved = y.proved && x.tests = y.tests
    | Directed_tail x, Directed_tail y ->
      x.ids = y.ids && x.next = y.next && x.attempts = y.attempts
    | Sat_tail x, Sat_tail y ->
      x.ids = y.ids && x.next = y.next && x.proved = y.proved
      && x.tests = y.tests
    | _ -> false
  in
  phase_equal && Tseq.equal a.t0 b.t0
  && Bitset.equal a.remaining b.remaining
  && Bitset.equal a.untestable b.untestable
  && a.rounds = b.rounds && a.accepted = b.accepted && a.fruitless = b.fruitless
  && Rng.export a.rng = Rng.export b.rng
