module Tseq = Bist_logic.Tseq
module Vector = Bist_logic.Vector
module T = Bist_logic.Ternary
module Rng = Bist_util.Rng
module Ppsfp = Bist_sim.Ppsfp
module Netlist = Bist_circuit.Netlist
module Obs = Bist_obs.Obs

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

let code = function T.One -> '\001' | T.Zero -> '\002' | T.X -> '\000'

(* The fitness of every segment, [Ppsfp.max_candidates] of them per
   batch. Every candidate of a batch starts in the given states and all
   are stepped together; each stops at its detection step, so it counts
   the excitations and the widest divergence up to and including that
   step, as a one-candidate loop that stops there does. *)
let score sim ~obs ~good ~faulty ~site ~excite segments =
  let n = Array.length segments in
  let fitness = Array.make n 0 in
  let div = Array.make Ppsfp.max_candidates 0 in
  let base = ref 0 in
  while !base < n do
    let m = min Ppsfp.max_candidates (n - !base) in
    Ppsfp.load_candidates sim ~good ~faulty (Array.sub segments !base m);
    let excitations = Array.make m 0 and max_div = Array.make m 0 in
    let detected_at = Array.make m (-1) in
    let u = ref 0 in
    while Ppsfp.running_candidates sim <> 0 do
      let stepped = Ppsfp.running_candidates sim in
      Ppsfp.step_candidates sim;
      let detected = Ppsfp.detected_candidates sim in
      let excited = Ppsfp.candidates_at sim site excite in
      Ppsfp.candidate_divergence sim div;
      for k = 0 to m - 1 do
        let bit = 1 lsl k in
        if stepped land bit <> 0 then begin
          if detected land bit <> 0 then detected_at.(k) <- !u;
          if excited land bit <> 0 then excitations.(k) <- excitations.(k) + 1;
          if div.(k) > max_div.(k) then max_div.(k) <- div.(k)
        end
      done;
      incr u
    done;
    for k = 0 to m - 1 do
      fitness.(!base + k) <-
        (if detected_at.(k) >= 0 then detected_bonus - detected_at.(k) else 0)
        + (100 * max_div.(k)) + excitations.(k)
    done;
    Obs.count obs "directed.batches";
    Obs.count obs ~by:!u "directed.batch_steps";
    base := !base + m
  done;
  Obs.count obs ~by:n "directed.candidates";
  fitness

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

let search ?(config = default_config) ?(obs = Obs.null) ~rng ~good ~faulty circuit fault =
  let width = Netlist.num_inputs circuit in
  let sim = Ppsfp.create circuit in
  let stuck = fault.Bist_fault.Fault.stuck in
  (match fault.Bist_fault.Fault.site with
  | Bist_fault.Fault.Output n -> Ppsfp.add_output_force sim n ~mask:Ppsfp.faulty_lanes stuck
  | Bist_fault.Fault.Pin { gate; pin } ->
    Ppsfp.add_pin_force sim ~gate ~pin ~mask:Ppsfp.faulty_lanes stuck);
  let good = Bytes.of_seq (Seq.map code (Array.to_seq good)) in
  let faulty = Bytes.of_seq (Seq.map code (Array.to_seq faulty)) in
  let site = excitation_node fault circuit in
  let evaluations = ref 0 in
  (* Scoring draws nothing from [rng], so building a generation's
     children first and scoring them together draws what building and
     scoring each in turn does. *)
  let scored segments =
    evaluations := !evaluations + Array.length segments;
    let fitness = score sim ~obs ~good ~faulty ~site ~excite:(T.not_ stuck) segments in
    Array.map2 (fun f s -> (f, s)) fitness segments
  in
  let population =
    ref
      (scored
         (Array.init config.population (fun _ ->
              random_segment rng ~width ~length:config.segment_length)))
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
    let children =
      Array.init
        (max 0 (config.population - Array.length elite))
        (fun _ ->
          let parent_a = snd (Rng.choose rng elite) in
          match Rng.int rng 3 with
          | 0 -> mutate rng ~rate:config.mutation_rate parent_a
          | 1 -> crossover rng parent_a (snd (Rng.choose rng sorted))
          | _ -> random_segment rng ~width ~length:config.segment_length)
    in
    population := Array.append elite (scored children)
  done;
  Obs.count obs ~by:(Ppsfp.evaluations sim) "directed.evaluations";
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
