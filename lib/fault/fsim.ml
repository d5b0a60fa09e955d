module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Ppsfp = Bist_sim.Ppsfp
module Obs = Bist_obs.Obs
module Pool = Bist_parallel.Pool
module Shard = Bist_parallel.Shard

type outcome = {
  universe : Universe.t;
  det_time : int array;
  detected : Bitset.t;
}

let faults_per_pass = 62 (* 63 lanes minus the fault-free lane 0 *)

let install sim fault ~lane =
  let mask = 1 lsl lane in
  match (fault : Fault.t) with
  | { site = Fault.Output n; stuck } -> Ppsfp.add_output_force sim n ~mask stuck
  | { site = Fault.Pin { gate; pin }; stuck } ->
    Ppsfp.add_pin_force sim ~gate ~pin ~mask stuck

(* Step [sim] from its reset state through [tr]'s first [len] steps
   until the lanes of [live] are all detected; [detected u lanes] hears
   each detection. A detected lane is dropped on the spot (its time is
   fixed, and lanes are independent bitwise, so the remaining lanes are
   unaffected), except the last: a group ends there and leaves its
   forces installed. With a block length [l], the state is marked at
   each multiple of [l] the run steps through whose next block repeats
   the one starting there, and at that next multiple the run jumps past
   every block that repeats the one before, provided no lane was dropped
   since the mark and every lane's state recurs: those blocks would
   replay the last one, detecting nothing and returning to the same
   state ({!Ppsfp.step}). Returns the steps taken and the steps
   jumped. *)
let drive ~block sim tr ~len live detected =
  let live = ref live and marked_live = ref 0 in
  let u = ref 0 and taken = ref 0 and jumped = ref 0 in
  while !u < len && !live <> 0 do
    let skip =
      if block > 0 && !u mod block = 0 then begin
        let r = if !live = !marked_live then Ppsfp.repeats tr !u else 0 in
        if r > 0 && Ppsfp.recurs sim then r
        else begin
          (* Only a block the next one repeats can be jumped past. *)
          if Ppsfp.repeats tr (!u + block) > 0 then begin
            Ppsfp.mark sim;
            marked_live := !live
          end;
          0
        end
      end
      else 0
    in
    if skip > 0 then begin
      u := !u + skip;
      jumped := !jumped + skip
    end
    else begin
      Ppsfp.step sim tr !u;
      incr taken;
      let newly = Ppsfp.po_diff_lanes sim land !live in
      if newly <> 0 then begin
        detected !u newly;
        live := !live land lnot newly;
        if !live <> 0 then Ppsfp.drop_lanes sim newly
      end;
      incr u
    end
  done;
  (!taken, !jumped)

type work = {
  mutable steps : int; (* group-steps taken *)
  mutable skipped : int; (* group-steps jumped *)
  mutable dropped : int; (* lanes retired on detection *)
}

(* One pass over a slice of the targets, writing detection times
   positionally ([det_local.(i)] belongs to fault [ids.(i)]). The
   simulator and its fault-free trace are created here, inside the
   worker, so parallel shards never share mutable simulation state. A
   fault's detection time does not depend on which other faults share
   its 62-fault group, so any slicing of any order of the targets yields
   the same times. Returns the times, the group work, the trace and the
   simulator, whose counters hold the rest of the shard's work. *)
let run_ids ?ctl ?block universe seq ids =
  let circuit = Universe.circuit universe in
  let k = Array.length ids in
  let det_local = Array.make k (-1) in
  let sim = Ppsfp.create circuit in
  let tr = Ppsfp.trace ?block sim seq in
  let block = Option.value block ~default:0 in
  let len = Tseq.length seq in
  let n_groups = (k + faults_per_pass - 1) / faults_per_pass in
  let work = { steps = 0; skipped = 0; dropped = 0 } in
  for g = 0 to n_groups - 1 do
    (* Safe point between groups: nothing partial is committed, a
       preempted shard just raises out through the pool. *)
    Bist_resilience.Ctl.poll ctl;
    let base = g * faults_per_pass in
    let group_size = min faults_per_pass (k - base) in
    Ppsfp.clear_forces sim;
    Ppsfp.reset sim;
    for j = 0 to group_size - 1 do
      install sim (Universe.get universe ids.(base + j)) ~lane:(j + 1)
    done;
    let detected u lanes =
      for j = 0 to group_size - 1 do
        if lanes land (1 lsl (j + 1)) <> 0 then begin
          det_local.(base + j) <- u;
          work.dropped <- work.dropped + 1
        end
      done
    in
    let taken, jumped =
      drive ~block sim tr ~len (((1 lsl group_size) - 1) lsl 1) detected
    in
    work.steps <- work.steps + taken;
    work.skipped <- work.skipped + jumped
  done;
  (det_local, work, tr, sim)

(* Whole groups are the unit of sharding: [min jobs groups] contiguous
   shards, balanced within one group, so every pool width simulates
   exactly the groups of the sequential run. *)
let shards ~jobs ids =
  let n = Array.length ids in
  let groups = (n + faults_per_pass - 1) / faults_per_pass in
  Shard.partition ~chunks:jobs (Array.init groups Fun.id)
  |> Array.map (fun gs ->
         let first = gs.(0) * faults_per_pass in
         let stop = min n ((gs.(Array.length gs - 1) + 1) * faults_per_pass) in
         Array.sub ids first (stop - first))

let run ?(obs = Obs.null) ?pool ?ctl ?targets ?block ?stop_when_all_detected:_
    universe seq =
  let n_faults = Universe.size universe in
  let target_ids =
    let order = Universe.by_rank universe in
    match targets with
    | None -> order
    | Some set -> Array.of_seq (Seq.filter (Bitset.mem set) (Array.to_seq order))
  in
  let pool = match pool with Some _ -> pool | None -> Pool.from_env () in
  (* The shard closure runs on the pool's worker domains, so each span
     lands on its own trace track (tid = domain id): parallel shard
     utilisation is readable straight off the timeline. Every width
     simulates the same groups, so the group counters, added once per
     shard, do not depend on the pool. *)
  let piece ids =
    let det_time, work, tr, sim =
      Obs.span obs ~cat:"fsim" "fsim.shard"
        ~args:(fun () ->
          [ ("faults", string_of_int (Array.length ids));
            ("seq_len", string_of_int (Tseq.length seq)) ])
        (fun () -> run_ids ?ctl ?block universe seq ids)
    in
    Obs.count obs ~by:((Array.length ids + faults_per_pass - 1) / faults_per_pass) "fsim.groups";
    Obs.count obs ~by:work.steps "fsim.group_steps";
    Obs.count obs ~by:work.skipped "fsim.skipped_steps";
    Obs.count obs ~by:work.dropped "fsim.dropped_lanes";
    Obs.count obs ~by:(Ppsfp.evaluations sim) "fsim.evaluations";
    Obs.count obs ~by:(Ppsfp.full_steps sim) "fsim.full_steps";
    Obs.count obs ~by:(Ppsfp.event_steps sim) "fsim.event_steps";
    ({ Shard.ids; det_time }, (Ppsfp.trace_length tr, Ppsfp.trace_copies tr))
  in
  let pieces =
    match pool with
    | Some p when Pool.jobs p > 1 && Array.length target_ids > faults_per_pass ->
      Pool.map_chunks p piece (shards ~jobs:(Pool.jobs p) target_ids)
    | _ -> [| piece target_ids |]
  in
  (* Each shard materialises its own trace up to its longest group; the
     longest of those is the trace a sequential run materialises, and
     which of its rows are copies depends only on the sequence, so
     neither count depends on the pool. *)
  let longest = Array.fold_left (fun m (_, t) -> max m t) (0, 0) pieces in
  Obs.count obs ~by:(fst longest) "fsim.trace_steps";
  Obs.count obs ~by:(snd longest) "fsim.trace_copies";
  let det_time, detected = Shard.merge ~size:n_faults (Array.map fst pieces) in
  { universe; det_time; detected }

let coverage outcome =
  float_of_int (Bitset.cardinal outcome.detected)
  /. float_of_int (Universe.size outcome.universe)

(* The fault sits in lane 1. The trace buffer is reused by every
   candidate sequence, so a [single] must stay in one domain. *)
type single = { sim : Ppsfp.t; tr : Ppsfp.trace }

let single circuit fault =
  let sim = Ppsfp.create circuit in
  install sim fault ~lane:1;
  { sim; tr = Ppsfp.trace sim (Tseq.empty (Bist_circuit.Netlist.num_inputs circuit)) }

let single_detection_time ?block s seq =
  Ppsfp.retrace ?block s.tr seq;
  Ppsfp.reset s.sim;
  let time = ref None in
  ignore
    (drive ~block:(Option.value block ~default:0) s.sim s.tr ~len:(Tseq.length seq) 2
       (fun u _ -> time := Some u)
      : int * int);
  !time

let single_detects ?block s seq = Option.is_some (single_detection_time ?block s seq)

let detects circuit fault seq = single_detects (single circuit fault) seq
