(** The whole [tgen] pipeline — generation then static compaction — as
    one resumable, checkpointable unit.

    [bin/bistgen tgen] and the [bistd] daemon worker both run exactly
    this module, so a job migrated between daemon workers and a
    [--resume]d CLI run share one checkpoint format and one resume
    semantics: the PR 5 round-boundary invariant (an interrupted-then-
    resumed run is bit-identical to an uninterrupted one) holds for both
    by construction, not by parallel maintenance of two codecs.

    A checkpoint payload is a parameter echo ([params]: seed, directed
    budget, SAT knobs, compaction trial budget — resuming with different
    knobs is a typed {!Bist_resilience.Checkpoint.Mismatch}) followed by
    a stage tag and that stage's snapshot. *)

type params = {
  seed : int;  (** Engine rng seed. *)
  directed : int;  (** Directed-search budget ([--directed]). *)
  trials : int;  (** Static-compaction trial budget ([--compact-trials]). *)
  sat_budget : int;  (** SAT-tail fault budget ([--sat-budget], 0 = off). *)
  sat_frames : int;  (** SAT time-frame bound ([--sat-frames]). *)
  sat_conflicts : int;  (** Per-solve conflict budget ([--sat-conflicts]). *)
}

type stage =
  | Generating of Engine.snapshot
      (** Preempted inside {!Engine.generate}. *)
  | Compacting of Engine.stats * Compaction.snapshot
      (** Generation finished (with these stats); preempted inside
          {!Compaction.compact}. *)

exception Interrupted of stage
(** Raised out of {!execute} when [ctl] demands a stop, carrying the
    stage snapshot to serialize with {!encode_payload}. *)

val encode_payload : params -> stage -> string
(** The ["tgen"] checkpoint payload bytes ({!Bist_resilience.Checkpoint}
    stores them opaquely). *)

val decode_payload : params -> string -> stage
(** Inverse of {!encode_payload}, validating the parameter echo against
    this run's [params]. Raises {!Bist_resilience.Checkpoint.Mismatch}
    on a parameter disagreement and
    {!Bist_resilience.Checkpoint.Corrupt} on malformed bytes. *)

val execute :
  ?obs:Bist_obs.Obs.t ->
  ?pool:Bist_parallel.Pool.t ->
  ?ctl:Bist_resilience.Ctl.t ->
  ?resume:stage ->
  params ->
  Bist_fault.Universe.t ->
  Bist_logic.Tseq.t * Engine.stats * Compaction.stats
(** Generate [T0] with {!Engine.generate_with_coverage} (config =
    {!Engine.default_config} of the universe's circuit with [params]'
    directed and SAT budgets) and compact it with {!Compaction.compact},
    whose baseline is the engine's closing simulation of [T0] when this
    run generated it. The result is a deterministic function of [params]
    and the circuit, for every pool width and any interleaving of
    preemptions. *)
