(** Directed test generation for individual hard faults.

    STRATEGATE [11], the paper's T0 source, steers a genetic search by
    dynamic state traversal; this module is the corresponding extension
    of our substitute engine. For one target fault it evolves a
    population of input segments that start where [T0] leaves the
    fault-free and the faulty machine, guided by a fitness made of

    - detection (dominant term),
    - the number of time units that {e excite} the fault site (fault-free
      value opposite to the stuck value), and
    - the widest state divergence reached between the faulty and
      fault-free machines (a propagation-progress measure).

    The search starts from the two machines' flip-flop states, which the
    engine keeps at the end of [T0] anyway ({!Bist_fault.Fsim.frontier}),
    so an attempt never re-simulates [T0]. A generation is scored in one
    bit-parallel pass: {!Bist_sim.Ppsfp}'s candidate lanes step every
    child together, each with its own fault-free and faulty machine, and
    stop each at its detection step. Children are built before they are
    scored, and scoring draws nothing from the generator, so the draws,
    the segments and the result are those of scoring each child on its
    own as soon as it is built. *)

type config = {
  population : int;
  generations : int;
  segment_length : int;
  mutation_rate : float;  (** Per-bit flip probability when mutating. *)
}

val default_config : config
(** 8 individuals, 12 generations, 32-vector segments, 0.05. *)

type outcome = {
  segment : Bist_logic.Tseq.t option;
      (** A segment that detects the fault when applied from the given
          states, if the search succeeded. *)
  evaluations : int;  (** Candidate segments scored. *)
  best_fitness : int;
}

val search :
  ?config:config ->
  ?obs:Bist_obs.Obs.t ->
  rng:Bist_util.Rng.t ->
  good:Bist_logic.Ternary.t array ->
  faulty:Bist_logic.Ternary.t array ->
  Bist_circuit.Netlist.t ->
  Bist_fault.Fault.t ->
  outcome
(** Search for a segment that detects the fault when the fault-free
    machine starts in state [good] and the faulty one in [faulty] (one
    value per flip-flop, in {!Bist_circuit.Netlist.dffs} order): the
    states after a prefix [T0] that leaves the fault undetected, i.e.
    {!Bist_fault.Fsim.frontier_good} and {!Bist_fault.Fsim.frontier_state}
    of a frontier at the end of [T0]. The segment then detects the fault
    appended to [T0].

    [obs] (default {!Bist_obs.Obs.null}) counts the scoring work:
    ["directed.candidates"] (segments scored, [evaluations]),
    ["directed.batches"] (bit-parallel passes), ["directed.batch_steps"]
    (their steps) and ["directed.evaluations"] (gate evaluations, one per
    gate per batch step). *)

val order_hardest_first :
  Bist_analyze.Scoap.t -> Bist_fault.Universe.t -> int array -> unit
(** Sort fault ids in place, most expensive {!Bist_analyze.Scoap.fault_cost}
    first (ties by ascending id, so the order is deterministic). The
    directed phase attacks targets in this order: hard faults profit
    most from the genetic search, while easy stragglers tend to fall
    out of the produced segments for free. *)
