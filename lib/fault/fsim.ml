module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Ppsfp = Bist_sim.Ppsfp
module Obs = Bist_obs.Obs
module Pool = Bist_parallel.Pool
module Shard = Bist_parallel.Shard

(* --- frontiers --------------------------------------------------------- *)

(* A flip-flop state is one trace code per flip-flop; a frontier keeps
   the fault-free one as is and each held fault's packed four codes to
   a byte, one [row]-byte row per fault, in ascending id order. *)
type frontier = {
  step : int;
  good : Bytes.t;
  ids : int array;
  states : Bytes.t;
}

let row_bytes n_ffs = (n_ffs + 3) / 4

let pack codes dst off =
  let n = Bytes.length codes in
  for b = 0 to row_bytes n - 1 do
    let v = ref 0 in
    for k = 0 to 3 do
      let i = (4 * b) + k in
      if i < n then v := !v lor (Char.code (Bytes.unsafe_get codes i) lsl (2 * k))
    done;
    Bytes.unsafe_set dst (off + b) (Char.unsafe_chr !v)
  done

let unpack src off codes =
  for i = 0 to Bytes.length codes - 1 do
    let c = (Char.code (Bytes.unsafe_get src (off + (i / 4))) lsr (2 * (i mod 4))) land 3 in
    Bytes.unsafe_set codes i (Char.unsafe_chr c)
  done

(* The row of fault [id], or -1 when [f] does not hold it. *)
let find f id =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let m = f.ids.(mid) in
      if m = id then mid else if m < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length f.ids)

let frontier_step f = f.step
let frontier_faults f = Array.copy f.ids

let ternary_of_code = function
  | 1 -> Bist_logic.Ternary.One
  | 2 -> Bist_logic.Ternary.Zero
  | _ -> Bist_logic.Ternary.X

let frontier_good f =
  Array.init (Bytes.length f.good) (fun i -> ternary_of_code (Char.code (Bytes.get f.good i)))

let frontier_state f id =
  let k = find f id in
  if k < 0 then invalid_arg "Fsim.frontier_state: fault not held";
  let codes = Bytes.create (Bytes.length f.good) in
  unpack f.states (k * row_bytes (Bytes.length f.good)) codes;
  Array.init (Bytes.length codes) (fun i -> ternary_of_code (Char.code (Bytes.get codes i)))

(* The bytes of the record, its three blocks and their headers. *)
let bytes_for ~n_ffs ~faults = 64 + n_ffs + (faults * (8 + row_bytes n_ffs))

let frontier_cost universe ~faults =
  bytes_for ~n_ffs:(Bist_circuit.Netlist.num_dffs (Universe.circuit universe)) ~faults

let frontier_bytes f = bytes_for ~n_ffs:(Bytes.length f.good) ~faults:(Array.length f.ids)

(* [a]'s step, fault-free state and faults, and the faults of [b] that
   [a] lacks and [keep] accepts: both lists ascending, so one merge. *)
let frontier_union a b ~keep =
  if Bytes.length a.good <> Bytes.length b.good then
    invalid_arg "Fsim.frontier_union: frontiers of two circuits";
  let rb = row_bytes (Bytes.length a.good) in
  let na = Array.length a.ids and nb = Array.length b.ids in
  let ids = Array.make (na + nb) 0 and states = Bytes.create ((na + nb) * rb) in
  let n = ref 0 in
  let take src k id =
    ids.(!n) <- id;
    Bytes.blit src (k * rb) states (!n * rb) rb;
    incr n
  in
  let i = ref 0 and j = ref 0 in
  while !i < na || !j < nb do
    let x = if !i < na then a.ids.(!i) else max_int in
    let y = if !j < nb then b.ids.(!j) else max_int in
    if x <= y then begin
      take a.states !i x;
      incr i;
      if x = y then incr j
    end
    else begin
      if keep y then take b.states !j y;
      incr j
    end
  done;
  { a with ids = Array.sub ids 0 !n; states = Bytes.sub states 0 (!n * rb) }

type rejoin = { states : frontier array; shift : int; det_time : int array }

(* --- the run ----------------------------------------------------------- *)

type outcome = {
  universe : Universe.t;
  sequence : Tseq.t;
  det_time : int array;
  detected : Bitset.t;
  frontiers : frontier array;
  rejoined : int;
}

let faults_per_pass = 62 (* 63 lanes minus the fault-free lane 0 *)

let install sim fault ~lane =
  let mask = 1 lsl lane in
  match (fault : Fault.t) with
  | { site = Fault.Output n; stuck } -> Ppsfp.add_output_force sim n ~mask stuck
  | { site = Fault.Pin { gate; pin }; stuck } ->
    Ppsfp.add_pin_force sim ~gate ~pin ~mask stuck

(* Step [sim] from its start state through [tr]'s first [len] steps
   until the lanes of [live] are all retired; [detected u lanes] hears
   each detection. At the step [stops.(i)] (ascending, at most [len]),
   before that step applies, [at_stop i live] may retire lanes itself
   and returns them. A retired lane is dropped on the spot (its time is
   fixed, and lanes are independent bitwise, so the remaining lanes are
   unaffected), except the last: a group ends there and leaves its
   forces installed. With a block length [l] (and no stops), the state
   is marked at each multiple of [l] the run steps through whose next
   block repeats the one starting there, and at that next multiple the
   run jumps past every block that repeats the one before when every
   lane's state recurs: a lane live there kept its forces through the
   last block, a dropped one is a copy of lane 0, so those blocks would
   replay the last one, detecting nothing and returning to the same
   state ({!Ppsfp.step}). Returns the steps taken and the steps
   jumped. *)
let drive ?(stops = [||]) ?(at_stop = fun _ _ -> 0) ~block sim tr ~len live detected =
  let live = ref live in
  let u = ref 0 and taken = ref 0 and jumped = ref 0 and next = ref 0 in
  let stop () =
    if !next < Array.length stops && stops.(!next) = !u then begin
      let retired = at_stop !next !live land !live in
      incr next;
      if retired <> 0 then begin
        live := !live land lnot retired;
        if !live <> 0 then Ppsfp.drop_lanes sim retired
      end
    end
  in
  while !u < len && !live <> 0 do
    stop ();
    if !live <> 0 then begin
      let skip =
        if block > 0 && !u mod block = 0 then begin
          let r = Ppsfp.repeats tr !u in
          if r > 0 && Ppsfp.recurs sim then r
          else begin
            (* Only a block the next one repeats can be jumped past. *)
            if Ppsfp.repeats tr (!u + block) > 0 then Ppsfp.mark sim;
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
    end
  done;
  if !live <> 0 then stop ();
  (!taken, !jumped)

type work = {
  mutable steps : int; (* group-steps taken *)
  mutable skipped : int; (* group-steps jumped *)
  mutable dropped : int; (* lanes retired on detection *)
  mutable loaded : int; (* lanes started from a frontier *)
  mutable rejoined : int; (* lanes retired on rejoining *)
  mutable recorded : int; (* lane states recorded *)
}

(* The states a shard records at one step: ids in group order, and one
   packed row per id. *)
type recording = { mutable r_ids : int array; mutable r_n : int; r_rows : Buffer.t }

let record_lane r id row =
  if r.r_n = Array.length r.r_ids then begin
    let grown = Array.make ((2 * r.r_n) + 16) 0 in
    Array.blit r.r_ids 0 grown 0 r.r_n;
    r.r_ids <- grown
  end;
  r.r_ids.(r.r_n) <- id;
  r.r_n <- r.r_n + 1;
  Buffer.add_bytes r.r_rows row

(* Where the stops of a run fall: local steps ascending, and per stop
   the record (index into [record]) and the rejoin frontier (index into
   its [states]) it serves, or -1. *)
type plan = { at : int array; rec_of : int array; chk_of : int array }

(* One pass over a slice of the targets, writing detection times
   positionally ([det_local.(i)] belongs to fault [ids.(i)]). The
   simulator and its fault-free trace are created here, inside the
   worker, so parallel shards never share mutable simulation state. A
   fault's detection time does not depend on which other faults share
   its 62-fault group, so any slicing of any order of the targets yields
   the same times. Returns the times, the group work, the recordings,
   the trace and the simulator, whose counters hold the rest of the
   shard's work. *)
let run_ids ?ctl ?block ?from ?rejoin ~plan ~n_records universe seq ids =
  let circuit = Universe.circuit universe in
  let n_ffs = Bist_circuit.Netlist.num_dffs circuit in
  let rb = row_bytes n_ffs in
  let k = Array.length ids in
  let det_local = Array.make k (-1) in
  let sim = Ppsfp.create circuit in
  let tr = Ppsfp.trace ?block ?start:(Option.map (fun f -> f.good) from) sim seq in
  let block = Option.value block ~default:0 in
  let u0 = match from with Some f -> f.step | None -> 0 in
  let len = Tseq.length seq in
  let n_groups = (k + faults_per_pass - 1) / faults_per_pass in
  let work = { steps = 0; skipped = 0; dropped = 0; loaded = 0; rejoined = 0; recorded = 0 } in
  let recordings =
    Array.init n_records (fun _ -> { r_ids = [||]; r_n = 0; r_rows = Buffer.create 64 })
  in
  let codes = Bytes.create n_ffs and stored = Bytes.create n_ffs and row = Bytes.create rb in
  for g = 0 to n_groups - 1 do
    (* Safe point between groups: nothing partial is committed, a
       preempted shard just raises out through the pool. *)
    Bist_resilience.Ctl.poll ctl;
    let base = g * faults_per_pass in
    let group_size = min faults_per_pass (k - base) in
    Ppsfp.clear_forces sim;
    (match from with
    | None -> Ppsfp.reset sim
    | Some f ->
      Ppsfp.load sim f.good;
      for j = 0 to group_size - 1 do
        unpack f.states (find f ids.(base + j) * rb) codes;
        Ppsfp.load_lane sim ~lane:(j + 1) codes
      done;
      work.loaded <- work.loaded + group_size);
    for j = 0 to group_size - 1 do
      install sim (Universe.get universe ids.(base + j)) ~lane:(j + 1)
    done;
    let detected u lanes =
      for j = 0 to group_size - 1 do
        if lanes land (1 lsl (j + 1)) <> 0 then begin
          det_local.(base + j) <- u0 + u;
          work.dropped <- work.dropped + 1
        end
      done
    in
    (* A live lane whose state equals its fault's in the rejoin
       frontier, while the fault-free states are equal too, retires
       with the time the frontier's run detects it at, moved by the
       shift; then the states of the lanes still live are recorded. *)
    let at_stop i live =
      let retired = ref 0 in
      (match (rejoin : rejoin option) with
      | Some r when plan.chk_of.(i) >= 0 ->
        let fr = r.states.(plan.chk_of.(i)) in
        Ppsfp.lane_state sim ~lane:0 codes;
        if Bytes.equal codes fr.good then
          for j = 0 to group_size - 1 do
            let lane = 1 lsl (j + 1) in
            if live land lane <> 0 then begin
              let id = ids.(base + j) in
              let idx = find fr id in
              if idx >= 0 then begin
                Ppsfp.lane_state sim ~lane:(j + 1) codes;
                unpack fr.states (idx * rb) stored;
                if Bytes.equal codes stored then begin
                  let d = r.det_time.(id) in
                  det_local.(base + j) <- (if d < 0 then -1 else d - r.shift);
                  retired := !retired lor lane;
                  work.rejoined <- work.rejoined + 1
                end
              end
            end
          done
      | _ -> ());
      let ri = plan.rec_of.(i) in
      if ri >= 0 then
        for j = 0 to group_size - 1 do
          if (live land lnot !retired) land (1 lsl (j + 1)) <> 0 then begin
            Ppsfp.lane_state sim ~lane:(j + 1) codes;
            pack codes row 0;
            record_lane recordings.(ri) ids.(base + j) row;
            work.recorded <- work.recorded + 1
          end
        done;
      !retired
    in
    let taken, jumped =
      drive ~stops:plan.at ~at_stop ~block sim tr ~len
        (((1 lsl group_size) - 1) lsl 1)
        detected
    in
    work.steps <- work.steps + taken;
    work.skipped <- work.skipped + jumped
  done;
  (det_local, work, recordings, tr, sim)

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

let ascending name steps =
  Array.iteri
    (fun i s -> if i > 0 && s <= steps.(i - 1) then invalid_arg (name ^ ": steps not ascending"))
    steps

(* The stops of [record] and [checks], both ascending local steps,
   merged. *)
let make_plan record checks =
  let at = ref [] and i = ref 0 and j = ref 0 in
  let nr = Array.length record and nc = Array.length checks in
  while !i < nr || !j < nc do
    let r = if !i < nr then record.(!i) else max_int in
    let c = if !j < nc then checks.(!j) else max_int in
    let s = min r c in
    let ri = if r = s then (incr i; !i - 1) else -1 in
    let ci = if c = s then (incr j; !j - 1) else -1 in
    at := (s, ri, ci) :: !at
  done;
  let stops = Array.of_list (List.rev !at) in
  {
    at = Array.map (fun (s, _, _) -> s) stops;
    rec_of = Array.map (fun (_, r, _) -> r) stops;
    chk_of = Array.map (fun (_, _, c) -> c) stops;
  }

(* The shards' recordings at one step, as the frontier at that step:
   ids ascending. Entry [i] of shard [p] is [(p lsl 32) lor i]. *)
let gather ~step ~good ~rb recs =
  let n = Array.fold_left (fun a r -> a + r.r_n) 0 recs in
  let entries = Array.make n 0 and k = ref 0 in
  Array.iteri
    (fun p r ->
      for i = 0 to r.r_n - 1 do
        entries.(!k) <- (p lsl 32) lor i;
        incr k
      done)
    recs;
  let id_of e = recs.(e lsr 32).r_ids.(e land 0xFFFFFFFF) in
  Array.sort (fun a b -> compare (id_of a) (id_of b)) entries;
  let states = Bytes.create (n * rb) in
  Array.iteri
    (fun dst e ->
      Buffer.blit recs.(e lsr 32).r_rows ((e land 0xFFFFFFFF) * rb) states (dst * rb) rb)
    entries;
  { step; good; ids = Array.map id_of entries; states }

let run ?(obs = Obs.null) ?(counters = "fsim") ?pool ?ctl ?targets ?block
    ?stop_when_all_detected:_ ?from ?(record = [||]) ?rejoin universe seq =
  let n_faults = Universe.size universe in
  let n_ffs = Bist_circuit.Netlist.num_dffs (Universe.circuit universe) in
  let len = Tseq.length seq in
  let u0 = match from with Some f -> f.step | None -> 0 in
  (match from with
  | Some f when Bytes.length f.good <> n_ffs -> invalid_arg "Fsim.run: frontier of another circuit"
  | _ -> ());
  let checks =
    match rejoin with
    | None -> [||]
    | Some (r : rejoin) ->
      if Array.length r.det_time <> n_faults then invalid_arg "Fsim.run: rejoin det_time size";
      Array.map (fun f -> f.step - r.shift - u0) r.states
  in
  let local_record = Array.map (fun s -> s - u0) record in
  ascending "Fsim.run ~record" local_record;
  ascending "Fsim.run ~rejoin" checks;
  if Array.exists (fun s -> s < 0 || s > len) local_record then
    invalid_arg "Fsim.run: record step outside the run";
  if Array.exists (fun s -> s < 0 || s >= len) checks then
    invalid_arg "Fsim.run: rejoin step outside the run";
  if block <> None && (record <> [||] || checks <> [||]) then
    invalid_arg "Fsim.run: a block length with record or rejoin";
  let plan = make_plan local_record checks in
  (* One pass over the locality order keeps the targets in it. *)
  let target_ids =
    let order = Universe.by_rank universe in
    match targets with
    | None -> order
    | Some set ->
      let ids = Array.make (Bitset.cardinal set) 0 in
      let k = ref 0 in
      Array.iter
        (fun id ->
          if Bitset.mem set id then begin
            ids.(!k) <- id;
            incr k
          end)
        order;
      ids
  in
  (match from with
  | Some f ->
    Array.iter
      (fun id -> if find f id < 0 then invalid_arg "Fsim.run: target not held by the frontier")
      target_ids
  | None -> ());
  let pool = match pool with Some _ -> pool | None -> Pool.from_env () in
  let name s = counters ^ "." ^ s in
  let n_records = Array.length record in
  (* The shard closure runs on the pool's worker domains, so each span
     lands on its own trace track (tid = domain id): parallel shard
     utilisation is readable straight off the timeline. Every width
     simulates the same groups, so the group counters, added once per
     shard, do not depend on the pool. *)
  let piece ids =
    let det_time, work, recordings, tr, sim =
      Obs.span obs ~cat:"fsim" (name "shard")
        ~args:(fun () ->
          [ ("faults", string_of_int (Array.length ids));
            ("seq_len", string_of_int (Tseq.length seq)) ])
        (fun () -> run_ids ?ctl ?block ?from ?rejoin ~plan ~n_records universe seq ids)
    in
    Obs.count obs ~by:((Array.length ids + faults_per_pass - 1) / faults_per_pass) (name "groups");
    Obs.count obs ~by:work.steps (name "group_steps");
    Obs.count obs ~by:work.skipped (name "skipped_steps");
    Obs.count obs ~by:work.dropped (name "dropped_lanes");
    (* Counted only when a run uses frontiers at all. *)
    if work.loaded > 0 then Obs.count obs ~by:work.loaded (name "loaded_lanes");
    if work.rejoined > 0 then Obs.count obs ~by:work.rejoined (name "rejoined_lanes");
    if work.recorded > 0 then Obs.count obs ~by:work.recorded (name "recorded_lanes");
    Obs.count obs ~by:(Ppsfp.evaluations sim) (name "evaluations");
    ({ Shard.ids; det_time }, recordings, tr, work.rejoined)
  in
  let pieces =
    match pool with
    | Some p when Pool.jobs p > 1 && Array.length target_ids > faults_per_pass ->
      Pool.map_chunks p piece (shards ~jobs:(Pool.jobs p) target_ids)
    | _ -> [| piece target_ids |]
  in
  (* Each shard materialises its own trace up to its longest group; the
     longest of those is the trace a sequential run materialises. The
     fault-free states of the recorded steps are read from it, here in
     the calling domain. Once the fault-free state has equalled a rejoin
     frontier's, this run's fault-free machine replays that frontier's
     run, so a recorded step that is also a rejoin step takes the
     frontier's state and needs no trace there. *)
  let tr =
    Array.fold_left
      (fun best (_, _, t, _) -> if Ppsfp.trace_length t > Ppsfp.trace_length best then t else best)
      (let _, _, t, _ = pieces.(0) in t)
      pieces
  in
  let frontiers =
    if n_records = 0 then [||]
    else begin
      let goods = Array.make n_records Bytes.empty in
      let codes = Bytes.create n_ffs in
      let joined = ref false in
      Array.iteri
        (fun i s ->
          if s <= local_record.(n_records - 1) then begin
            let chk = plan.chk_of.(i) in
            let fr = match (rejoin : rejoin option) with Some r when chk >= 0 -> Some r.states.(chk) | _ -> None in
            (match fr with
            | Some fr when not !joined ->
              Ppsfp.trace_state tr s codes;
              if Bytes.equal codes fr.good then joined := true
            | _ -> ());
            let ri = plan.rec_of.(i) in
            if ri >= 0 then
              goods.(ri) <-
                (match fr with
                | Some fr when !joined -> fr.good
                | _ ->
                  Ppsfp.trace_state tr s codes;
                  Bytes.copy codes)
          end)
        plan.at;
      let rb = row_bytes n_ffs in
      Array.init n_records (fun ri ->
          gather ~step:record.(ri) ~good:goods.(ri) ~rb
            (Array.map (fun (_, recs, _, _) -> recs.(ri)) pieces))
    end
  in
  (* Which of the trace's rows are copies depends only on the sequence,
     so neither count depends on the pool. *)
  Obs.count obs ~by:(Ppsfp.trace_length tr) (name "trace_steps");
  Obs.count obs ~by:(Ppsfp.trace_copies tr) (name "trace_copies");
  let det_time, detected = Shard.merge ~size:n_faults (Array.map (fun (p, _, _, _) -> p) pieces) in
  let rejoined = Array.fold_left (fun a (_, _, _, r) -> a + r) 0 pieces in
  { universe; sequence = seq; det_time; detected; frontiers; rejoined }

let coverage outcome =
  float_of_int (Bitset.cardinal outcome.detected)
  /. float_of_int (Universe.size outcome.universe)

(* The fault sits in lane 1. The trace buffer is reused by every
   candidate sequence, so a [single] must stay in one domain. *)
type single = {
  sim : Ppsfp.t;
  tr : Ppsfp.trace;
  mutable s_steps : int;
  mutable s_skipped : int;
  mutable s_trace_steps : int;
  mutable s_trace_copies : int;
}

let single circuit fault =
  let sim = Ppsfp.create circuit in
  install sim fault ~lane:1;
  {
    sim;
    tr = Ppsfp.trace sim (Tseq.empty (Bist_circuit.Netlist.num_inputs circuit));
    s_steps = 0;
    s_skipped = 0;
    s_trace_steps = 0;
    s_trace_copies = 0;
  }

let single_detection_time ?block s seq =
  Ppsfp.retrace ?block s.tr seq;
  Ppsfp.reset s.sim;
  let time = ref None in
  let taken, jumped =
    drive ~block:(Option.value block ~default:0) s.sim s.tr ~len:(Tseq.length seq) 2
      (fun u _ -> time := Some u)
  in
  s.s_steps <- s.s_steps + taken;
  s.s_skipped <- s.s_skipped + jumped;
  s.s_trace_steps <- s.s_trace_steps + Ppsfp.trace_length s.tr;
  s.s_trace_copies <- s.s_trace_copies + Ppsfp.trace_copies s.tr;
  !time

let single_detects ?block s seq = Option.is_some (single_detection_time ?block s seq)

let single_work s =
  [
    ("group_steps", s.s_steps);
    ("skipped_steps", s.s_skipped);
    ("evaluations", Ppsfp.evaluations s.sim);
    ("trace_steps", s.s_trace_steps);
    ("trace_copies", s.s_trace_copies);
  ]

let detects circuit fault seq = single_detects (single circuit fault) seq
