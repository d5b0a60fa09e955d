module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Fsim = Bist_fault.Fsim

type pass =
  | Increasing_length
  | Decreasing_length
  | Reverse_generation
  | Decreasing_prev_detections

let pass_name = function
  | Increasing_length -> "increasing_length"
  | Decreasing_length -> "decreasing_length"
  | Reverse_generation -> "reverse_generation"
  | Decreasing_prev_detections -> "decreasing_prev_detections"

let default_passes =
  [ Increasing_length; Decreasing_length; Reverse_generation; Decreasing_prev_detections ]

(* [met]: the targets already simulated against the expansion of [seq];
   [det ⊆ met]: those it detects. Both only grow. *)
type item = {
  seq : Tseq.t;
  gen_index : int;
  met : Bitset.t;
  det : Bitset.t;
  mutable active : bool;
  mutable prev_detections : int;
}

type outcome = {
  kept : Tseq.t list;
  dropped : int;
  simulated_time_units : int;
}

(* All orderings are stable with generation order as the tiebreak, so a
   fixed input yields a fixed result. *)
let order_for pass items =
  let active = List.filter (fun it -> it.active) items in
  let by key =
    List.stable_sort
      (fun a b ->
        let c = Int.compare (key a) (key b) in
        if c <> 0 then c else Int.compare a.gen_index b.gen_index)
      active
  in
  match pass with
  | Increasing_length -> by (fun it -> Tseq.length it.seq)
  | Decreasing_length -> by (fun it -> -Tseq.length it.seq)
  | Reverse_generation -> by (fun it -> -it.gen_index)
  | Decreasing_prev_detections -> by (fun it -> -it.prev_detections)

let memo_of ~known ~size seqs =
  match known with
  | None -> List.map (fun _ -> (Bitset.create size, Bitset.create size)) seqs
  | Some known ->
    if List.compare_lengths known seqs <> 0 then
      invalid_arg "Postprocess.run: known has another length than the sequences";
    List.map
      (fun (met, det) ->
        if Bitset.capacity met <> size || Bitset.capacity det <> size then
          invalid_arg "Postprocess.run: known set over another universe";
        if not (Bitset.subset det met) then
          invalid_arg "Postprocess.run: known detections outside their met set";
        (Bitset.copy met, Bitset.copy det))
      known

let run ?(passes = default_passes) ?(operators = Ops.all_operators)
    ?(obs = Bist_obs.Obs.null) ?known ~n ~targets universe seqs =
  let memo = memo_of ~known ~size:(Bist_fault.Universe.size universe) seqs in
  let items =
    List.mapi
      (fun i (seq, (met, det)) ->
        { seq; gen_index = i; met; det; active = true; prev_detections = 0 })
      (List.combine seqs memo)
  in
  let time_units = ref 0 in
  let run_pass pass =
    let remaining = Bitset.copy targets in
    let simulate it =
      let fresh = Bitset.copy remaining in
      Bitset.diff_into fresh it.met;
      if not (Bitset.is_empty fresh) then begin
        let exp = Ops.expand_with ~operators ~n it.seq in
        time_units :=
          !time_units + (Tseq.length exp * ((Bitset.cardinal fresh + 61) / 62));
        let outcome = Fsim.run ~obs ~targets:fresh universe exp in
        Bitset.union_into it.met fresh;
        Bitset.union_into it.det outcome.Fsim.detected
      end;
      let detected = Bitset.copy it.det in
      Bitset.inter_into detected remaining;
      let count = Bitset.cardinal detected in
      if count = 0 then it.active <- false
      else begin
        Bitset.diff_into remaining detected;
        it.prev_detections <- count
      end
    in
    Bist_obs.Obs.span obs ~cat:"compaction" "postprocess.pass"
      ~args:(fun () ->
        [ ("order", pass_name pass);
          ("active",
           string_of_int
             (List.length (List.filter (fun it -> it.active) items))) ])
      (fun () -> List.iter simulate (order_for pass items))
  in
  List.iter run_pass passes;
  Bist_obs.Obs.count obs ~by:!time_units "postprocess.time_units";
  let kept =
    List.filter_map (fun it -> if it.active then Some it.seq else None) items
  in
  {
    kept;
    dropped = List.length seqs - List.length kept;
    simulated_time_units = !time_units;
  }
