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

(* One pass over a slice of the universe, writing detection times
   positionally ([det_local.(i)] belongs to fault [ids.(i)]). The
   simulator and its fault-free trace are created here, inside the
   worker, so parallel shards never share mutable simulation state. A
   fault's detection time does not depend on which other faults share
   its 62-fault group, so any slicing of the canonical id order yields
   the same times. A detected fault's lane is dropped on the spot (its
   time is fixed, and lanes are independent bitwise, so the remaining
   lanes are unaffected), and a group ends as soon as all its lanes have
   been detected. *)
let run_ids ?ctl universe seq ids =
  let circuit = Universe.circuit universe in
  let k = Array.length ids in
  let det_local = Array.make k (-1) in
  let sim = Ppsfp.create circuit in
  let tr = Ppsfp.trace sim seq in
  let len = Tseq.length seq in
  let n_groups = (k + faults_per_pass - 1) / faults_per_pass in
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
    let live = ref (((1 lsl group_size) - 1) lsl 1) in
    let u = ref 0 in
    while !u < len && !live <> 0 do
      Ppsfp.step sim tr !u;
      let newly = Ppsfp.po_diff_lanes sim land !live in
      if newly <> 0 then begin
        for j = 0 to group_size - 1 do
          if newly land (1 lsl (j + 1)) <> 0 then det_local.(base + j) <- !u
        done;
        live := !live land lnot newly;
        Ppsfp.drop_lanes sim newly
      end;
      incr u
    done
  done;
  det_local

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

let run ?(obs = Obs.null) ?pool ?ctl ?targets ?stop_when_all_detected:_
    universe seq =
  let n_faults = Universe.size universe in
  let target_ids =
    match targets with
    | None -> Array.init n_faults (fun i -> i)
    | Some set -> Array.of_list (Bitset.elements set)
  in
  let pool = match pool with Some _ -> pool | None -> Pool.from_env () in
  (* The shard closure runs on the pool's worker domains, so each span
     lands on its own trace track (tid = domain id): parallel shard
     utilisation is readable straight off the timeline. *)
  let piece ids =
    let det_time =
      Obs.span obs ~cat:"fsim" "fsim.shard"
        ~args:(fun () ->
          [ ("faults", string_of_int (Array.length ids));
            ("seq_len", string_of_int (Tseq.length seq)) ])
        (fun () -> run_ids ?ctl universe seq ids)
    in
    { Shard.ids; det_time }
  in
  let pieces =
    match pool with
    | Some p when Pool.jobs p > 1 && Array.length target_ids > faults_per_pass ->
      Pool.map_chunks p piece (shards ~jobs:(Pool.jobs p) target_ids)
    | _ -> [| piece target_ids |]
  in
  let det_time, detected = Shard.merge ~size:n_faults pieces in
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

let single_detection_time s seq =
  Ppsfp.retrace s.tr seq;
  Ppsfp.reset s.sim;
  let len = Tseq.length seq in
  let rec go u =
    if u >= len then None
    else begin
      Ppsfp.step s.sim s.tr u;
      if Ppsfp.po_diff_lanes s.sim <> 0 then Some u else go (u + 1)
    end
  in
  go 0

let single_detects s seq = Option.is_some (single_detection_time s seq)

let detects circuit fault seq = single_detects (single circuit fault) seq
