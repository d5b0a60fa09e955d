(** Memo-free static compaction: the differential oracle for
    {!Bist_core.Postprocess.run}. *)

val run :
  ?passes:Bist_core.Postprocess.pass list ->
  ?operators:Bist_core.Ops.operator list ->
  n:int ->
  targets:Bist_util.Bitset.t ->
  Bist_fault.Universe.t ->
  Bist_logic.Tseq.t list ->
  Bist_core.Postprocess.outcome
(** Simulates every active sequence against every remaining target at
    each turn; [kept] and [dropped] must equal those of
    {!Bist_core.Postprocess.run} on the same input. *)
