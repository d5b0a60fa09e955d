module Tseq = Bist_logic.Tseq
module Vector = Bist_logic.Vector
module T = Bist_logic.Ternary
module Rng = Bist_util.Rng
module Ppsfp = Bist_sim.Ppsfp
module Netlist = Bist_circuit.Netlist

type config = {
  population : int;
  generations : int;
  segment_length : int;
  mutation_rate : float;
}

let default_config =
  { population = 8; generations = 12; segment_length = 32; mutation_rate = 0.05 }

type outcome = {
  segment : Tseq.t option;
  evaluations : int;
  best_fitness : int;
}

let detected_bonus = 1_000_000

(* The line whose fault-free value decides excitation: the stem for an
   output fault, the driving stem for a branch fault. *)
let excitation_node (fault : Bist_fault.Fault.t) circuit =
  match fault.Bist_fault.Fault.site with
  | Bist_fault.Fault.Output n -> n
  | Bist_fault.Fault.Pin { gate; pin } -> (Netlist.fanins circuit gate).(pin)

(* Fitness of [segment] applied after the snapshot state. [tr] is
   restarted on the segment from the snapshot's fault-free state. *)
let fitness sim tr ~snapshot ~site ~stuck segment =
  Ppsfp.restore_state sim snapshot;
  Ppsfp.retrace ~from:snapshot tr segment;
  let excitations = ref 0 in
  let max_state_div = ref 0 in
  let detected_at = ref (-1) in
  let len = Tseq.length segment in
  let u = ref 0 in
  while !detected_at < 0 && !u < len do
    Ppsfp.step sim tr !u;
    if Ppsfp.po_diff_lanes sim land 0b10 <> 0 then detected_at := !u;
    let good = Ppsfp.good_value tr !u site in
    if T.is_binary good && not (T.equal good stuck) then incr excitations;
    let div = Ppsfp.state_diff_count sim ~lane:1 in
    if div > !max_state_div then max_state_div := div;
    incr u
  done;
  (if !detected_at >= 0 then detected_bonus - !detected_at else 0)
  + (100 * !max_state_div) + !excitations

let random_segment rng ~width ~length =
  Tseq.of_vectors (Array.init length (fun _ -> Vector.random_binary rng width))

let mutate rng ~rate segment =
  let width = Tseq.width segment in
  let vecs = Tseq.to_array segment in
  let mutated =
    Array.map
      (fun v ->
        let flipped = ref v in
        for i = 0 to width - 1 do
          if Rng.bernoulli rng rate then
            flipped := Vector.set !flipped i (T.not_ (Vector.get !flipped i))
        done;
        !flipped)
      vecs
  in
  Tseq.of_vectors mutated

let crossover rng a b =
  let len = min (Tseq.length a) (Tseq.length b) in
  if len < 2 then a
  else begin
    let cut = 1 + Rng.int rng (len - 1) in
    Tseq.concat (Tseq.sub a ~lo:0 ~hi:(cut - 1)) (Tseq.sub b ~lo:cut ~hi:(len - 1))
  end

let search ?(config = default_config) ~rng ~prefix circuit fault =
  let width = Netlist.num_inputs circuit in
  let sim = Ppsfp.create circuit in
  Bist_fault.Fsim.install sim fault ~lane:1;
  Ppsfp.reset sim;
  let tr = Ppsfp.trace sim prefix in
  for u = 0 to Tseq.length prefix - 1 do
    Ppsfp.step sim tr u
  done;
  let snapshot = Ppsfp.save_state sim in
  let site = excitation_node fault circuit in
  let stuck = fault.Bist_fault.Fault.stuck in
  let evaluations = ref 0 in
  let eval segment =
    incr evaluations;
    fitness sim tr ~snapshot ~site ~stuck segment
  in
  let population =
    ref
      (Array.init config.population (fun _ ->
           let s = random_segment rng ~width ~length:config.segment_length in
           (eval s, s)))
  in
  let best () =
    Array.fold_left (fun acc (f, s) -> match acc with
        | Some (bf, _) when bf >= f -> acc
        | _ -> Some (f, s))
      None !population
    |> Option.get
  in
  let generation = ref 0 in
  while !generation < config.generations && fst (best ()) < detected_bonus do
    incr generation;
    let sorted =
      Array.of_list
        (List.sort (fun (a, _) (b, _) -> Int.compare b a) (Array.to_list !population))
    in
    let elite = Array.sub sorted 0 (max 1 (config.population / 4)) in
    let next =
      Array.init config.population (fun i ->
          if i < Array.length elite then elite.(i)
          else begin
            let parent_a = snd (Rng.choose rng elite) in
            let child =
              match Rng.int rng 3 with
              | 0 -> mutate rng ~rate:config.mutation_rate parent_a
              | 1 -> crossover rng parent_a (snd (Rng.choose rng sorted))
              | _ -> random_segment rng ~width ~length:config.segment_length
            in
            (eval child, child)
          end)
    in
    population := next
  done;
  let best_fitness, best_segment = best () in
  {
    segment = (if best_fitness >= detected_bonus - Tseq.length best_segment then Some best_segment else None);
    evaluations = !evaluations;
    best_fitness;
  }

let order_hardest_first scoap universe ids =
  let cost = Array.map (fun id ->
      Bist_analyze.Scoap.fault_cost scoap (Bist_fault.Universe.get universe id)) ids
  in
  let keyed = Array.mapi (fun i id -> (cost.(i), id)) ids in
  Array.sort
    (fun (ca, ia) (cb, ib) -> if ca <> cb then compare cb ca else compare ia ib)
    keyed;
  Array.iteri (fun i (_, id) -> ids.(i) <- id) keyed
