(** The [bistd] daemon: a crash-safe multi-tenant job server.

    One single-domain event loop ([select]) owns all protocol state —
    clients, the admission queue, the job table — and never runs a job
    itself: every admitted job executes in a {e forked worker process},
    which is what makes worker death a survivable, testable event rather
    than a daemon crash. The loop supervises workers over a pipe (EOF =
    exit, however violent), applies the {!Backoff} retry policy to
    crashes, migrates checkpointed jobs to fresh workers, enforces
    per-job deadlines, and persists a job manifest so even a killed
    {e daemon} resumes its queue on restart.

    Robustness contracts, each enforced by [make daemon-smoke] or the
    unit suite:
    - a SIGKILLed worker's job is re-admitted and resumed from its last
      checkpoint on another worker, and its result is bit-identical to
      an uninterrupted run;
    - a full queue answers [Submit] with a typed [Rejected] — clients
      never hang on admission and jobs are never silently dropped;
    - a malformed frame gets a typed [Error] reply (or a closed
      connection) and affects no one else; a slow client only ever
      blocks itself — all socket IO is non-blocking and buffered;
    - SIGTERM drains gracefully: workers checkpoint and park their jobs,
      the manifest is written, and a restarted daemon picks the queue
      back up. A second signal force-quits (exit 130);
    - a finished job leaves no file in the spool, and [Status] and
      [Wait] answer for the 64 most recently finished jobs only (older
      ones get ["unknown job id"]), so the daemon's memory does not grow
      with the number of jobs it has served.

    Untrusted-payload contracts (protocol v2):
    - the event loop {e never} parses an inline netlist payload; only a
      forked worker does, after jailing itself with {!Sandbox.apply}
      ([sandbox] below), so a hostile or merely enormous payload
      exhausts the worker's rlimits, not the daemon's;
    - a job that crashes [poison_threshold] {e distinct} workers is
      quarantined: typed [Quarantined] to every waiter, excluded from
      dispatch, persisted in the manifest (it survives daemon restarts),
      released only by an explicit [Quarantine_release] — which
      re-admits it at the front with a fresh crash budget, resuming from
      its kept checkpoint;
    - the manifest container is versioned: a spool written by an
      older daemon is refused with a distinct log line and an empty
      queue, never misread. *)

type config = {
  host : string;  (** Bind address (default loopback). *)
  port : int;  (** 0 picks an ephemeral port. *)
  max_workers : int;  (** Concurrent worker processes. *)
  queue_capacity : int;  (** Bounded admission queue depth. *)
  per_tenant : int option;  (** Per-tenant share of the queue. *)
  checkpoint_interval : float;  (** Seconds between job checkpoints. *)
  term_grace : float;
      (** Seconds a SIGTERMed worker gets to checkpoint before SIGKILL. *)
  backoff : Backoff.policy;
  spool : string;
      (** Directory for job checkpoints, results and the manifest;
          created if missing. *)
  sandbox : Sandbox.limits;
      (** Rlimits every forked worker applies to itself before touching
          its job (default {!Sandbox.default}). *)
  poison_threshold : int;
      (** Crashes on distinct workers before a job is quarantined
          (default 3 — one below the default retry budget's last
          attempt, so the typed quarantine verdict wins over a generic
          budget-exhausted failure). *)
  verbose : bool;  (** Log supervision events to stderr. *)
}

val default_config : config

val run : ?on_ready:(port:int -> unit) -> config -> unit
(** Bind, announce ([on_ready] and a ["bistd: listening on HOST:PORT"]
    line on stdout), serve until a graceful shutdown (SIGINT/SIGTERM or
    a [Shutdown] request), then drain and return. Raises
    [Invalid_argument] on a nonsensical config and [Unix.Unix_error] if
    the bind fails. *)
