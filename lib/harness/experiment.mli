(** The full per-circuit experiment pipeline.

    For a circuit entry: build the fault universe, generate [T0]
    (the STRATEGATE substitute), statically compact it (the [12]
    substitute), run the scheme for each [n] of the sweep, and pick the
    best [n] by the paper's rule. Budgets scale with circuit size so the
    complete suite stays runnable in minutes. *)

type budget = {
  tgen_max_length : int;
  compaction_trials : int;
  ns : int list;
  strategy : Bist_core.Procedure2.strategy;
      (** Paper-exact below ~1500 nodes, {!Bist_core.Procedure2.fast_strategy}
          above. *)
}

val budget_for : Bist_circuit.Netlist.t -> budget
(** Size-scaled defaults; the [n] sweep is always the paper's
    [\[2; 4; 8; 16\]]. *)

val tgen_config : Bist_circuit.Netlist.t -> budget -> Bist_tgen.Engine.config
(** The engine configuration {!run_circuit} generates T0 with: the
    budget's length cap, and a directed-search budget of 16 below ~1500
    nodes, none above. *)

type circuit_result = {
  name : string;
  paper_name : string;
  scaled : bool;
  stats : Bist_circuit.Stats.t;
  t0 : Bist_logic.Tseq.t;
  tgen_stats : Bist_tgen.Engine.stats;
  compaction_stats : Bist_tgen.Compaction.stats;
  runs : Bist_core.Scheme.run list;  (** One per [n], sweep order. *)
  best : Bist_core.Scheme.run;
  prescreen : Bist_analyze.Untestable.prescreen;
      (** Static untestability counts over the collapsed universe. *)
  scoap : Bist_analyze.Scoap.summary;  (** Fault-cost distribution. *)
}

val run_circuit :
  ?seed:int -> ?budget:budget -> Bist_bench.Registry.entry -> circuit_result
(** Every [n] shares one T0 fault table, whose simulation is timed as
    the best of 3 runs; the chosen [n]'s selection and compaction are
    timed as the best of 3 executions (the extra two skip the coverage
    check). Table 4's ratios divide those times, and a single run of
    each moved them by a third or more between reruns. *)

val run_suite :
  ?seed:int ->
  ?circuits:string list ->
  ?progress:(string -> unit) ->
  unit ->
  circuit_result list
(** Run every circuit of the registry's evaluation suite (or the named
    subset). [progress] receives one line per pipeline stage. *)

(** {2 Seed robustness}

    The pipeline is randomized (T0 generation, Procedure 2's omission
    order); this aggregates the headline ratios over several seeds so the
    report can show the spread, not just one draw. *)

type spread = { mean : float; min : float; max : float }

type robustness = {
  circuit : string;
  seeds : int list;
  ratio_total : spread;  (** after total / |T0| across seeds. *)
  ratio_max : spread;
  always_verified : bool;  (** Coverage preserved under every seed. *)
}

val robustness :
  ?seeds:int list -> Bist_bench.Registry.entry -> robustness
(** Default seeds: [\[2026; 2027; 2028\]]. Each seed reruns the whole
    pipeline (T0 included). *)
