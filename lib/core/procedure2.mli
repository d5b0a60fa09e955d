(** Procedure 2: derive a short stored sequence for one target fault.

    Given the deterministic sequence [T0] and a fault [f] first detected
    by [T0] at time [udet(f)], the procedure

    + grows a window [T' = T0\[ustart, udet(f)\]], decreasing [ustart]
      from [udet(f)], until the expanded sequence [T'exp] detects [f]
      (guaranteed to succeed by [ustart = 0] because [T'] is a prefix of
      [T'exp]);
    + greedily omits vectors of [T'] in random order, keeping an omission
      whenever [T'exp] still detects [f], restarting the scan after every
      accepted omission, until no vector can be omitted. *)

type strategy = {
  widen : [ `Linear | `Geometric ];
      (** How [ustart] descends in phase 1. [`Linear] is the paper's
          one-step rule; [`Geometric] doubles the window instead
          (1, 2, 4, ... time units, then the guaranteed [ustart = 0]),
          trading a slightly looser window for exponentially fewer
          simulations on large circuits. *)
  omission : [ `Restart | `Single_pass | `None ];
      (** [`Restart] is the paper's rule (rescan after every accepted
          omission); [`Single_pass] scans each vector once; [`None]
          skips phase 2. *)
  max_omission_trials : int;  (** Budget on phase-2 simulations. *)
}

val paper_strategy : strategy
(** [`Linear], [`Restart], unbounded — exactly Procedure 2. *)

val fast_strategy : strategy
(** [`Geometric], [`Single_pass], 2000 trials — for circuits where the
    exact rule is too slow; used by the harness above ~1500 nodes. *)

type outcome = {
  subsequence : Bist_logic.Tseq.t;  (** The final [T'], ready to store. *)
  ustart : int;  (** Window start found in the first phase. *)
  window_length : int;  (** [udet - ustart + 1], before omission. *)
  simulations : int;  (** Fault simulations performed (both phases). *)
  simulated_time_units : int;
      (** Total expanded vectors fed to the simulator — the
          implementation-independent cost measure. *)
}

exception Undetected of { fault : string; udet : int }
(** Raised when even [T0\[0, udet\]] fails to detect the target fault,
    i.e. the caller's [udet] was not this fault's detection time.
    [fault] is the human-readable {!Bist_fault.Fault.name}, so the error
    names the fault that broke the run instead of a bare [Failure]. A
    printer is registered with [Printexc]; {!Procedure1.run} re-raises it
    enriched with the universe fault id. *)

val find :
  ?strategy:strategy ->
  ?operators:Ops.operator list ->
  ?obs:Bist_obs.Obs.t ->
  ?ctl:Bist_resilience.Ctl.t ->
  rng:Bist_util.Rng.t ->
  n:int ->
  t0:Bist_logic.Tseq.t ->
  udet:int ->
  Bist_circuit.Netlist.t ->
  Bist_fault.Fault.t ->
  outcome
(** [find ~rng ~n ~t0 ~udet circuit fault]. [strategy] defaults to
    {!paper_strategy}; [operators] (default all) selects the expansion
    pipeline. Raises [Invalid_argument] if [udet] is out of range,
    {!Undetected} if even [T0\[0, udet\]] fails to detect the fault.

    [obs] records a ["proc2.widen"] span (window growth, phase 1) and a
    ["proc2.omit"] span (vector omission, phase 2) per call, each tagged
    with the fault name, adds the outcome's [simulations] and
    [simulated_time_units] to the ["proc2.simulations"] and
    ["proc2.time_units"] counters, and counts ["proc2.undetected"] when
    the typed error fires.

    [ctl] (default: none) is polled before every single-fault simulation
    in both phases; a demanded stop raises
    {!Bist_resilience.Ctl.Preempted} without leaving partial state. *)
