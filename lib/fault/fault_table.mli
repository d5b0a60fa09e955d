(** Detection-time bookkeeping over a reference sequence.

    This captures the data Procedure 1 needs about [T0]: the set [F] of
    detected faults and, for each, the first time unit [udet(f)] where it
    is detected — and it reproduces the layout of the paper's Table 2. *)

type t

val compute :
  ?obs:Bist_obs.Obs.t ->
  ?pool:Bist_parallel.Pool.t ->
  ?ctl:Bist_resilience.Ctl.t ->
  Universe.t ->
  Bist_logic.Tseq.t ->
  t
(** Simulate the sequence once and record first detection times. [pool]
    shards the simulation over domains with bit-identical results (see
    {!Fsim.run}); the default is sequential unless [BIST_JOBS] is set.
    [obs] wraps the run in a ["fault_table.compute"] span and records
    the per-shard spans of {!Fsim.run}. [ctl] is forwarded to
    {!Fsim.run} and may raise {!Bist_resilience.Ctl.Preempted}. *)

val universe : t -> Universe.t
val sequence : t -> Bist_logic.Tseq.t

val udet : t -> int -> int option
(** First detection time of a fault id, if detected. *)

val detected : t -> Bist_util.Bitset.t
(** Fresh copy of the detected set [F]. *)

val num_detected : t -> int

val coverage : t -> float

val detected_at : t -> int -> int list
(** Fault ids first detected at the given time unit. *)

val argmax_udet : t -> targets:Bist_util.Bitset.t -> int option
(** The target fault with the highest [udet] (Procedure 1, step 2).
    Ties break toward the lowest fault id; targets that [t] never
    detects are ignored. *)

val render : t -> string
(** Table-2-style listing: time unit, vector, faults first detected. *)
