module Bitset = Bist_util.Bitset

type piece = { ids : int array; det_time : int array }

let partition ~chunks arr =
  let n = Array.length arr in
  let chunks = max 1 (min chunks n) in
  if n = 0 then [||]
  else begin
    let base = n / chunks and rem = n mod chunks in
    Array.init chunks (fun i ->
        let start = (i * base) + min i rem in
        let len = base + if i < rem then 1 else 0 in
        Array.sub arr start len)
  end

let merge ~size pieces =
  let det_time = Array.make size (-1) in
  let detected = Bitset.create size in
  Array.iter
    (fun { ids; det_time = local } ->
      if Array.length ids <> Array.length local then
        invalid_arg "Shard.merge: ids/det_time length mismatch";
      Array.iteri
        (fun j id ->
          if local.(j) >= 0 then begin
            det_time.(id) <- local.(j);
            Bitset.add detected id
          end)
        ids)
    pieces;
  (det_time, detected)
