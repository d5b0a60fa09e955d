(* The four-pass static compaction of Section 3.2 without a memo: at its
   turn, every active sequence's expansion is simulated against every
   target still remaining. This is Postprocess.run as it was before
   detections were carried across turns, kept as the differential oracle
   for that memo; production code never calls it. *)

module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Fsim = Bist_fault.Fsim
module Ops = Bist_core.Ops
module Postprocess = Bist_core.Postprocess

type item = {
  seq : Tseq.t;
  gen_index : int;
  mutable active : bool;
  mutable prev_detections : int;
}

let order_for pass items =
  let active = List.filter (fun it -> it.active) items in
  let by key =
    List.stable_sort
      (fun a b ->
        let c = Int.compare (key a) (key b) in
        if c <> 0 then c else Int.compare a.gen_index b.gen_index)
      active
  in
  match (pass : Postprocess.pass) with
  | Increasing_length -> by (fun it -> Tseq.length it.seq)
  | Decreasing_length -> by (fun it -> -Tseq.length it.seq)
  | Reverse_generation -> by (fun it -> -it.gen_index)
  | Decreasing_prev_detections -> by (fun it -> -it.prev_detections)

let run ?(passes = Postprocess.default_passes) ?(operators = Ops.all_operators) ~n
    ~targets universe seqs =
  let items = List.mapi (fun i seq -> { seq; gen_index = i; active = true; prev_detections = 0 }) seqs in
  let time_units = ref 0 in
  let run_pass pass =
    let remaining = Bitset.copy targets in
    let simulate it =
      let exp = Ops.expand_with ~operators ~n it.seq in
      time_units :=
        !time_units + (Tseq.length exp * ((Bitset.cardinal remaining + 61) / 62));
      let outcome = Fsim.run ~targets:remaining universe exp in
      let detected = outcome.Fsim.detected in
      let count = Bitset.cardinal detected in
      if count = 0 then it.active <- false
      else begin
        Bitset.diff_into remaining detected;
        it.prev_detections <- count
      end
    in
    List.iter simulate (order_for pass items)
  in
  List.iter run_pass passes;
  let kept =
    List.filter_map (fun it -> if it.active then Some it.seq else None) items
  in
  {
    Postprocess.kept;
    dropped = List.length seqs - List.length kept;
    simulated_time_units = !time_units;
  }
