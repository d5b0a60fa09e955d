(** End-to-end driver: T0 in, stored-sequence set out, with the metrics
    reported in the paper's Tables 3-5. *)

type summary = { count : int; total_length : int; max_length : int }
(** [|S|], total and maximum stored length. *)

type run = {
  circuit_name : string;
  n : int;  (** Repetitions used by the expansion. *)
  t0_length : int;
  total_faults : int;  (** Universe size ("tot" in Table 3). *)
  detected_by_t0 : int;  (** |F| ("det" in Table 3). *)
  before : summary;  (** After Procedure 1, before compaction. *)
  after : summary;  (** After static compaction. *)
  sequences : Bist_logic.Tseq.t list;  (** The compacted set S. *)
  expanded_total_length : int;
      (** Total at-speed test length: 8·n·(after total) for the full
          operator set ("test len" in Table 5). *)
  proc1_seconds : float;  (** Wall-clock seconds, as are the next two. *)
  compaction_seconds : float;
  simulate_t0_seconds : float;  (** Fault-simulating T0 once — the paper's
                                    normalization unit for Table 4. *)
  coverage_verified : bool;
      (** Whether the compacted expansions re-detect every fault of F. *)
}

val execute :
  ?strategy:Procedure2.strategy ->
  ?operators:Ops.operator list ->
  ?passes:Postprocess.pass list ->
  ?fault_order:[ `Max_udet | `Min_udet | `Random ] ->
  ?verify:bool ->
  ?obs:Bist_obs.Obs.t ->
  seed:int ->
  n:int ->
  t0:Bist_logic.Tseq.t ->
  Bist_fault.Universe.t ->
  run
(** Run Procedure 1 then static compaction. [verify] (default [true])
    re-simulates the final set to check coverage against [T0]. [obs]
    wraps the driver phases in ["scheme.simulate_t0"], ["scheme.proc1"],
    ["scheme.compaction"] and ["scheme.verify"] spans, with the
    per-target, per-pass and per-shard spans of the callees nested
    inside. *)

val verify_coverage :
  operators:Ops.operator list ->
  n:int ->
  Bist_fault.Universe.t ->
  Bist_util.Bitset.t ->
  Bist_logic.Tseq.t list ->
  bool
(** [verify_coverage ~operators ~n universe targets seqs]: whether the
    expansions of [seqs] together detect every fault of [targets]. *)

val better : run -> run -> run
(** The paper's best-[n] rule: smaller maximum stored length, then
    smaller total stored length, then lower run time. *)

val best_n :
  ?strategy:Procedure2.strategy ->
  ?ns:int list ->
  ?obs:Bist_obs.Obs.t ->
  seed:int ->
  t0:Bist_logic.Tseq.t ->
  Bist_fault.Universe.t ->
  run
(** Run {!execute} for every [n] in [ns] (default [\[2; 4; 8; 16\]], the
    paper's sweep) and keep the best. *)

val summary_of_sequences : Bist_logic.Tseq.t list -> summary

val ratio_total : run -> float
(** [after.total_length / t0_length] (Table 5, "tot len /"). *)

val ratio_max : run -> float
(** [after.max_length / t0_length] (Table 5, "max len /"). *)
