module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset
module Fsim = Bist_fault.Fsim

type report = {
  block : int;
  num_blocks : int;
  total_loaded : int;
  max_block_length : int;
  detected : int;
  coverage_preserved : bool;
}

let evaluate universe ~t0 ~block =
  if block < 1 then invalid_arg "Partition.evaluate: block must be >= 1";
  let len = Tseq.length t0 in
  let reference = (Fsim.run universe t0).Fsim.detected in
  (* Nominal blocks: [lo, hi] windows of T0. *)
  let nominal =
    let rec go lo acc =
      if lo >= len then List.rev acc
      else
        let hi = min (len - 1) (lo + block - 1) in
        go (hi + 1) ((lo, hi) :: acc)
    in
    go 0 []
  in
  (* Extend each block leftward until it re-detects every reference fault
     that the blocks so far were responsible for. We process blocks in
     order, maintaining the still-uncovered fault set; a block must cover
     whatever faults T0 first detects inside its window. *)
  let detected_by lo hi =
    (Fsim.run ~targets:reference universe (Tseq.sub t0 ~lo ~hi)).Fsim.detected
  in
  let remaining = Bitset.copy reference in
  let finalize (lo, hi) =
    let windows_detected = ref (detected_by lo hi) in
    let lo = ref lo in
    (* The faults this block must deliver: those T0 detects by time hi
       that are still missing. Extend until they are all present. *)
    let ref_outcome =
      Fsim.run ~targets:remaining universe (Tseq.sub t0 ~lo:0 ~hi)
    in
    let due = ref_outcome.Fsim.detected in
    let missing () =
      let m = Bitset.copy due in
      Bitset.diff_into m !windows_detected;
      not (Bitset.is_empty m)
    in
    while missing () && !lo > 0 do
      lo := max 0 (!lo - block);
      windows_detected := detected_by !lo hi
    done;
    Bitset.diff_into remaining !windows_detected;
    (!lo, hi, !windows_detected)
  in
  let final_blocks = List.map finalize nominal in
  let union = Bitset.create (Bist_fault.Universe.size universe) in
  List.iter (fun (_, _, d) -> Bitset.union_into union d) final_blocks;
  let lengths = List.map (fun (lo, hi, _) -> hi - lo + 1) final_blocks in
  {
    block;
    num_blocks = List.length final_blocks;
    total_loaded = List.fold_left ( + ) 0 lengths;
    max_block_length = List.fold_left max 0 lengths;
    detected = Bitset.cardinal union;
    coverage_preserved = Bitset.subset reference union;
  }
