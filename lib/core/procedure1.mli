(** Procedure 1: select the set of stored sequences S.

    Starting from the faults [F] detected by [T0] (with their first
    detection times), repeatedly pick the yet-uncovered fault with the
    highest [udet], derive a stored sequence for it with {!Procedure2},
    and drop from the target set every fault detected by the new
    sequence's expansion. Terminates because each iteration covers at
    least its own target fault. *)

type selected = {
  seq : Bist_logic.Tseq.t;
  target_fault : int;  (** Universe id of the fault that seeded it. *)
  newly_detected : Bist_util.Bitset.t;
      (** Targets dropped when this sequence was added. *)
  proc2 : Procedure2.outcome;
}

type result = {
  selected : selected list;  (** In generation order. *)
  t0_detected : Bist_util.Bitset.t;  (** [F]: the coverage to reproduce. *)
  total_simulated_time_units : int;
}

exception Undetected_target of { fault_id : int; fault : string; udet : int }
(** {!Procedure2.Undetected} enriched with the universe fault id: the
    fault table claimed [T0] detects [fault_id] at [udet], but Procedure
    2 could not reproduce the detection. Indicates an internal
    inconsistency; the error names the fault so the failing run is
    diagnosable. *)

val run :
  ?strategy:Procedure2.strategy ->
  ?operators:Ops.operator list ->
  ?fault_order:[ `Max_udet | `Min_udet | `Random ] ->
  ?obs:Bist_obs.Obs.t ->
  ?ctl:Bist_resilience.Ctl.t ->
  ?table:Bist_fault.Fault_table.t ->
  rng:Bist_util.Rng.t ->
  n:int ->
  t0:Bist_logic.Tseq.t ->
  Bist_fault.Universe.t ->
  result
(** [fault_order] (default [`Max_udet], the paper's rule) exists for the
    ablation study. [obs] records one ["proc1.target"] span per selected
    sequence (tagged with the target fault and its [udet]) around the
    Procedure-2 spans, plus the fault-simulation shard spans.

    [ctl] (default: none) is polled between targets and forwarded to the
    fault-table pass and {!Procedure2.find}; a demanded stop raises
    {!Bist_resilience.Ctl.Preempted}. Procedure 1 itself is cheap (the
    expensive [T0] generation checkpoints upstream), so it carries no
    resumable snapshot — a preempted selection restarts.

    [table] (default: computed here) is [T0]'s fault table, for a caller
    that has already simulated [T0]; the result is the same as without
    it. Raises [Invalid_argument] if [table] was computed for another
    universe or sequence. *)

val sequences : result -> Bist_logic.Tseq.t list

val known : result -> (Bist_util.Bitset.t * Bist_util.Bitset.t) list
(** One [(met, det)] pair per selected sequence, in generation order:
    [met] is the target set its expansion was simulated against ([F]
    minus the [newly_detected] of the sequences before it) and [det] its
    [newly_detected]. This is the [known] argument of {!Postprocess.run}
    for the same [n] and operators. [det] is shared with [result]. *)

val total_length : Bist_logic.Tseq.t list -> int
val max_length : Bist_logic.Tseq.t list -> int
