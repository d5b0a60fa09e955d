module Tseq = Bist_logic.Tseq
module Bitset = Bist_util.Bitset

type t = {
  universe : Universe.t;
  seq : Tseq.t;
  det_time : int array;
  detected : Bitset.t;
}

let compute ?(obs = Bist_obs.Obs.null) ?pool ?ctl universe seq =
  Bist_obs.Obs.span obs ~cat:"fsim" "fault_table.compute"
    ~args:(fun () ->
      [ ("circuit",
         Bist_circuit.Netlist.circuit_name (Universe.circuit universe));
        ("faults", string_of_int (Universe.size universe));
        ("seq_len", string_of_int (Tseq.length seq)) ])
    (fun () ->
      let outcome = Fsim.run ~obs ?pool ?ctl universe seq in
      {
        universe;
        seq;
        det_time = outcome.Fsim.det_time;
        detected = outcome.Fsim.detected;
      })

let universe t = t.universe
let sequence t = t.seq

let udet t id = if t.det_time.(id) >= 0 then Some t.det_time.(id) else None

let detected t = Bitset.copy t.detected

let num_detected t = Bitset.cardinal t.detected

let coverage t =
  float_of_int (num_detected t) /. float_of_int (Universe.size t.universe)

let detected_at t u =
  Universe.fold
    (fun id _ acc -> if t.det_time.(id) = u then id :: acc else acc)
    t.universe []
  |> List.rev

let argmax_udet t ~targets =
  Bitset.fold
    (fun id best ->
      if t.det_time.(id) < 0 then best
      else
        match best with
        | None -> Some id
        | Some b -> if t.det_time.(id) > t.det_time.(b) then Some id else best)
    targets None

let render t =
  let c = Universe.circuit t.universe in
  let table =
    Bist_util.Ascii_table.create
      ~headers:
        [ ("u", Bist_util.Ascii_table.Right);
          ("T0[u]", Bist_util.Ascii_table.Left);
          ("detected faults", Bist_util.Ascii_table.Left) ]
  in
  for u = 0 to Tseq.length t.seq - 1 do
    let faults =
      detected_at t u
      |> List.map (fun id -> Fault.name c (Universe.get t.universe id))
      |> String.concat " "
    in
    Bist_util.Ascii_table.add_row table
      [ string_of_int u; Bist_logic.Vector.to_string (Tseq.get t.seq u); faults ]
  done;
  Bist_util.Ascii_table.render table
