(** Deterministic test-sequence generation — the [T0] substrate.

    The paper takes [T0] from STRATEGATE (a GA-based sequential ATPG we
    do not have); this engine is the documented substitute. It grows [T0]
    segment by segment with fault-simulation feedback: each round proposes
    several candidate segments (plain random, weighted random with biased
    one-probability, and hold-mode segments that repeat each vector
    several times, after Nachman et al. [3]), keeps the candidate that
    detects the most still-undetected faults, and stops after a run of
    fruitless rounds.

    Because three-valued gate functions are monotone in the information
    order, a fault detected by a segment simulated from the all-X state is
    also detected when the segment runs embedded in the concatenated
    [T0] — so coverage only grows as segments are appended.

    From the re-baseline on, no remaining fault is detected by [T0], so
    the engine keeps [T0]'s end state as a frontier
    ({!Bist_fault.Fsim.frontier}) and simulates each embedded candidate,
    and each embedded, directed or SAT-tail segment it accepts, over the
    segment alone from there; the accepting run records the next
    frontier. The result is the one of simulating [T0 ++ seg] from
    reset. *)

type config = {
  segment_length : int;  (** Vectors per candidate segment. *)
  candidates_per_round : int;
  patience : int;  (** Fruitless rounds tolerated before stopping. *)
  max_length : int;
      (** Hard cap on the length of [T0] during the search phases. The
          SAT tail is exempt: it targets exactly the faults the search
          abandoned after this budget ran out, and its overshoot is
          bounded by [sat_budget * sat_frames] vectors. *)
  hold_options : int list;  (** Hold factors sampled for hold-mode candidates. *)
  weighted_p : float list;  (** One-probabilities sampled for weighted candidates. *)
  sample_cap : int;
      (** When more than this many faults remain, candidates are scored
          against an evenly-spaced sample of that size (classic fault
          sampling); the accepted segment is then re-simulated against
          the full remaining set. *)
  directed_budget : int;
      (** Number of still-undetected faults to attack with the
          genetic {!Directed} search after the random phases (0 disables
          the phase, the default — it is the expensive, high-yield
          tail). Targets are attacked hardest-first by SCOAP cost
          ({!Directed.order_hardest_first}). *)
  prescreen : bool;
      (** Run the {!Bist_analyze.Untestable} prover first and exclude
          provably untestable faults from the generation targets (on by
          default). Final coverage is unaffected — those faults were
          undetectable — but the patience budget stops being spent on
          them. *)
  sat_budget : int;
      (** Number of surviving faults to hand to the bounded-exact SAT
          back end ({!Bist_sat.Satgen}) after every search phase has
          given up (0 disables the phase, the default). An UNSAT answer
          within [sat_frames] time frames retires the fault; a model is
          decoded into an input sequence, validated against the fault
          simulator, and appended to [T0]. *)
  sat_frames : int;  (** Time-frame bound of the SAT unrolling. *)
  sat_conflicts : int;
      (** Per-solve conflict budget before a fault is left to the final
          coverage numbers. *)
}

val default_config : Bist_circuit.Netlist.t -> config
(** Scales the segment length with the circuit's sequential depth. *)

type stats = {
  rounds : int;
  segments_accepted : int;
  detected : int;  (** Faults the final [T0] detects. *)
  total_faults : int;
  statically_untestable : int;
      (** Faults the prescreen proved untestable (0 when disabled). *)
  sat_proved : int;
      (** Faults the SAT tail proved untestable within [sat_frames]
          time frames (0 when the phase is disabled). *)
  sat_tests : int;
      (** SAT-derived, simulator-validated sequences appended to [T0]
          for faults every search phase had aborted on. *)
}

(** {2 Preemption and resume}

    Generation can be interrupted at {e safe points} — boundaries where
    the whole run state is a handful of values — and later resumed from a
    snapshot of that state. The headline invariant, pinned by the test
    suite: a run that is preempted any number of times and resumed from
    each snapshot produces the same [T0] and the same statistics,
    bit for bit, as one uninterrupted run with the same seed. *)

type phase =
  | Standalone  (** Greedy rounds, candidates scored from the all-X state. *)
  | Rebaseline  (** About to re-simulate the concatenated [T0]. *)
  | Embedded  (** Greedy rounds, candidates scored appended to [T0]. *)
  | Directed_tail of { ids : int array; next : int; attempts : int }
      (** Between directed attempts: [ids] is the hardest-first target
          order fixed when the phase began (it cannot be recomputed —
          [remaining] has shrunk since), [next] indexes the next target,
          [attempts] counts search attempts spent so far. *)
  | Sat_tail of { ids : int array; next : int; proved : int; tests : int }
      (** Between SAT queries: [ids] is the fault-id-ordered target
          slice fixed when the phase began, [next] indexes the next
          target, [proved]/[tests] snapshot the phase counters (the
          solver consumes no rng, so resuming here is bit-identical). *)
  | Finalize of { proved : int; tests : int }
      (** About to run the final coverage simulation; [proved]/[tests]
          are the SAT tail's final counters, carried into the stats. *)

type snapshot = {
  phase : phase;
  t0 : Bist_logic.Tseq.t;
  remaining : Bist_util.Bitset.t;
  untestable : Bist_util.Bitset.t;
  rounds : int;
  accepted : int;
  fruitless : int;  (** Fruitless-round streak inside the current phase. *)
  rng : Bist_util.Rng.t;
}
(** Everything [generate] needs to continue from a safe point. The
    bitsets and rng are private copies — mutating them does not disturb a
    snapshot already taken. *)

exception Interrupted of snapshot
(** Raised out of {!generate} when [ctl] demands a stop. The carried
    snapshot describes the last committed safe point; serialize it with
    {!encode_snapshot} and pass it back via [?resume] to continue. *)

val generate :
  ?config:config ->
  ?obs:Bist_obs.Obs.t ->
  ?pool:Bist_parallel.Pool.t ->
  ?ctl:Bist_resilience.Ctl.t ->
  ?resume:snapshot ->
  rng:Bist_util.Rng.t ->
  Bist_fault.Universe.t ->
  Bist_logic.Tseq.t * stats
(** [pool] parallelizes every fault simulation inside the generation loop
    (candidate scoring, re-baselining, the final coverage pass) without
    changing the result: the sharded simulator is bit-identical to the
    sequential one, and the [rng] stream is consumed only by the calling
    domain. Defaults to sequential unless [BIST_JOBS] is exported.

    [ctl] (default: none) is polled at every safe point — round
    boundaries, directed-attempt boundaries, the phase transitions — and
    forwarded to the inner fault simulations so even a long simulation
    responds promptly; a mid-simulation {!Bist_resilience.Ctl.Preempted}
    is caught here and rewound to the enclosing boundary. When a stop is
    demanded, {!Interrupted} is raised with the boundary snapshot.
    Each committed safe point calls {!Bist_resilience.Ctl.note_progress},
    so deadline-preempted runs always advance before stopping.

    [resume] (default: none) continues from a snapshot instead of
    starting fresh; [rng] is then ignored in favor of the snapshot's rng.
    The snapshot must come from the same circuit and fault universe —
    a size or width disagreement raises
    {!Bist_resilience.Checkpoint.Mismatch} (callers should additionally
    fingerprint the circuit, see [bin/bistgen]). Snapshots carry no
    frontier: a run resumed after the re-baseline recomputes [T0]'s end
    state with one simulation (span ["engine.resume_frontier"]) that
    commits nothing.

    The directed tail starts every {!Directed.search} from that end
    state: the fault-free state and the target's, read from the
    frontier, since every target is still undetected by [T0].

    [obs] (default {!Bist_obs.Obs.null}, one branch of overhead) records
    ["engine.prescreen"], two ["engine.selection"] spans (standalone and
    embedded scoring) with one ["engine.round"] span per greedy round
    nested inside, ["engine.rebaseline"], ["engine.directed"],
    ["engine.sat_tail"] (with one ["sat.fault"] span per query) and
    ["engine.final_fsim"], plus per-shard fault-simulation spans, the
    directed search's ["directed.*"] work counters, the
    ["engine.rounds"] / ["engine.segments_accepted"] counters and the
    ["engine.t0_length"] gauge. The generated sequence is identical with
    or without a sink: observability never touches the [rng] stream. *)

val generate_with_coverage :
  ?config:config ->
  ?obs:Bist_obs.Obs.t ->
  ?pool:Bist_parallel.Pool.t ->
  ?ctl:Bist_resilience.Ctl.t ->
  ?resume:snapshot ->
  rng:Bist_util.Rng.t ->
  Bist_fault.Universe.t ->
  Bist_logic.Tseq.t * stats * Bist_fault.Fsim.outcome
(** {!generate}, plus the run's closing full fault simulation of [T0]
    (span ["engine.final_fsim"]): every fault of the universe, from
    reset, the simulation [stats.detected] counts. A caller that
    compacts [T0] next passes it to {!Compaction.compact} as
    [~baseline], which then need not simulate [T0] again. *)

val encode_snapshot : Bist_resilience.Checkpoint.Io.writer -> snapshot -> unit
(** Append the snapshot's binary form; the engine section of a ["tgen"]
    checkpoint payload. *)

val decode_snapshot : Bist_resilience.Checkpoint.Io.reader -> snapshot
(** Inverse of {!encode_snapshot}. Raises
    {!Bist_resilience.Checkpoint.Corrupt} on a malformed section (bad
    phase tag, out-of-range cursor, truncation). *)

val snapshot_equal : snapshot -> snapshot -> bool
(** Structural equality, for codec round-trip tests. *)
