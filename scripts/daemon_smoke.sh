#!/usr/bin/env bash
# daemon-smoke: end-to-end gate for the bistd robustness contracts
# (DESIGN.md §11).
#
#  1. Migration bit-identity: a job whose worker is SIGKILLed mid-run is
#     resumed from its checkpoint on a fresh worker and its result is
#     byte-identical to an uninterrupted run's.
#  2. Typed backpressure: with the queue full, Submit is answered with a
#     typed Rejected (exit 1 + reason on stderr), never a hang or drop.
#  3. Chaos: truncated frames, garbage frames and a pathologically slow
#     client leave the daemon serving everyone else.
#  4. Daemon crash-safety: a SIGTERMed daemon parks its jobs (checkpoint
#     + manifest) and exits 0; a restart on the same spool recovers and
#     finishes them, still bit-identical.
#  5. Untrusted payload jobs (protocol v2): a .blif payload job — the
#     daemon never parses it, only the sandboxed worker does — whose
#     worker is SIGKILLed mid-run resumes and produces output
#     byte-identical to a local bistgen run on the same file.
#  6. Payload bombs: oversized, garbage and recursive-.subckt payloads
#     all get typed rejections and the daemon keeps serving.
#  7. Poison-job quarantine: a job that crashes 3 distinct workers
#     (RLIMIT_CPU kills) is quarantined with a typed reply while a
#     co-tenant job completes untouched; the quarantine survives a
#     daemon restart, and an operator release lets the job resume from
#     its kept checkpoint to a bit-identical result.
#  8. Finished jobs: more jobs than the daemon remembers leave no result
#     file in the spool; the newest still answers Wait with its result,
#     the oldest answers "unknown job id".
#
# Run from the repo root (the Makefile does): ./scripts/daemon_smoke.sh

set -u

BISTD=_build/default/bin/bistd.exe
BISTGEN=_build/default/bin/bistgen.exe

say()  { printf 'daemon-smoke: %s\n' "$*"; }
fail() { printf 'daemon-smoke: FAIL: %s\n' "$*" >&2; exit 1; }

dune build bin/bistd.exe bin/bistgen.exe || fail "build failed"
[ -x "$BISTD" ] || fail "missing $BISTD"
[ -x "$BISTGEN" ] || fail "missing $BISTGEN"

work=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null
  rm -rf "$work"
}
trap cleanup EXIT

# Long enough to SIGKILL mid-run (~3.5s on a 2-vCPU host, all of it
# x5378's T0 generation, whose candidates are scored on a fault
# sample), checkpointed every 100ms.
job=(tgen x5378 --seed 7 --trials 0 --directed 0)

start_daemon() { # extra serve args...
  "$BISTD" serve --port 0 --port-file "$work/port" --spool "$work/spool" \
    --interval 0.1 -v "$@" >> "$work/daemon.log" 2>&1 &
  daemon_pid=$!
  for _ in $(seq 1 50); do
    [ -s "$work/port" ] && break
    sleep 0.1
  done
  [ -s "$work/port" ] || fail "daemon did not announce a port"
  port=$(cat "$work/port")
  rm -f "$work/port"
}

# --- reference: an uninterrupted run ---------------------------------

start_daemon --workers 1
"$BISTD" submit "${job[@]}" --port "$port" --wait -o "$work/ref.seq" \
  2>/dev/null || fail "reference job failed"
"$BISTD" shutdown --port "$port" >/dev/null || fail "shutdown refused"
wait "$daemon_pid" || fail "reference daemon exited non-zero"
daemon_pid=""
[ -s "$work/ref.seq" ] || fail "reference produced no output"
rm -rf "$work/spool"
say "reference run complete"

# --- 1. SIGKILL a worker mid-job: migration must be bit-identical ----

start_daemon --workers 1
"$BISTD" submit "${job[@]}" --port "$port" --wait -o "$work/mig.seq" \
  > "$work/mig.client" 2>&1 &
client=$!
pidfile="$work/spool/job-1.pid"
for _ in $(seq 1 50); do
  [ -s "$pidfile" ] && break
  sleep 0.1
done
[ -s "$pidfile" ] || fail "worker pid file never appeared"
sleep 0.5   # let a few checkpoint legs land
kill -9 "$(cat "$pidfile")" 2>/dev/null || fail "could not SIGKILL the worker"
wait "$client" || fail "migrated job failed: $(cat "$work/mig.client")"
cmp -s "$work/ref.seq" "$work/mig.seq" \
  || fail "migrated result differs from the uninterrupted run"
"$BISTD" stats --port "$port" | grep -q "migrations.default *1" \
  || fail "stats do not record the migration"
say "SIGKILLed worker: job migrated, result bit-identical"

# --- 2. full queue answers with a typed rejection --------------------

# workers=1 is busy only briefly now; saturate the queue instead with a
# fresh long job plus queue-capacity more, then one over.
"$BISTD" shutdown --port "$port" >/dev/null; wait "$daemon_pid"; daemon_pid=""
rm -rf "$work/spool"
start_daemon --workers 1 --queue 1
"$BISTD" submit "${job[@]}" --port "$port" >/dev/null || fail "submit 1 refused"
sleep 0.3   # let it dispatch so the queue is empty again
"$BISTD" submit "${job[@]}" --port "$port" >/dev/null || fail "submit 2 refused"
"$BISTD" submit "${job[@]}" --port "$port" > "$work/rej.out" 2>&1
st=$?
[ "$st" -eq 1 ] || fail "overflow submit exited $st (expected 1)"
grep -q "queue_full" "$work/rej.out" \
  || fail "rejection lacks the typed reason: $(cat "$work/rej.out")"
say "full queue: typed queue-full rejection"

# --- 3. chaos: the daemon survives hostile clients -------------------

# The payload-bomb mode needs queue headroom, so it gets its own leg (6)
# on an idle daemon; here the queue is deliberately saturated.
for mode in truncate garbage slow; do
  "$BISTD" chaos "$mode" --port "$port" >/dev/null \
    || fail "daemon did not survive chaos $mode"
done
"$BISTD" stats --port "$port" | grep -q "protocol_errors" \
  || fail "protocol errors were not counted"
say "chaos truncate/garbage/slow: daemon survived, errors typed + counted"

# --- 4. SIGTERM the daemon mid-job: park, restart, recover -----------

# Jobs 1+2 from the backpressure step are still in flight on this spool.
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "draining daemon exited non-zero"
daemon_pid=""
[ -f "$work/spool/manifest" ] || fail "drain left no manifest"
start_daemon --workers 1
grep -q "recovered job" "$work/daemon.log" \
  || fail "restarted daemon recovered nothing"
deadline=$((SECONDS + 20))   # one 20 s bound for both jobs
for id in 1 2; do
  left=$((deadline - SECONDS))
  [ "$left" -gt 0 ] || fail "recovered job $id never finished"
  timeout "$left" "$BISTD" wait "$id" --port "$port" -o "$work/rec$id.seq" 2>/dev/null \
    || fail "recovered job $id never finished"
  cmp -s "$work/ref.seq" "$work/rec$id.seq" \
    || fail "recovered job $id differs from the uninterrupted run"
done
"$BISTD" shutdown --port "$port" >/dev/null
wait "$daemon_pid"; daemon_pid=""
say "SIGTERMed daemon: jobs parked, recovered on restart, bit-identical"

# --- 5. payload job (protocol v2): migration stays bit-identical -----

# The daemon never parses the payload; only the sandboxed worker does.
# Reference comes from a local bistgen run on the very same file, with
# the daemon's tgen parameters spelled out; x5378's T0 generation keeps
# the job running well past the kill below.
rm -rf "$work/spool"
"$BISTGEN" convert x5378 -o "$work/x5378.blif" >/dev/null \
  || fail "could not synthesize the .blif payload"
"$BISTGEN" tgen "$work/x5378.blif" --seed 7 --compact-trials 0 \
  --directed 0 -o "$work/pref.seq" >/dev/null \
  || fail "local reference run on the payload failed"
start_daemon --workers 1
"$BISTD" ping --port "$port" | grep -q "protocol v2" \
  || fail "handshake did not negotiate protocol v2"
"$BISTD" submit tgen --payload "$work/x5378.blif" --seed 7 --trials 0 \
  --directed 0 --port "$port" --wait -o "$work/pmig.seq" > "$work/pmig.client" 2>&1 &
client=$!
pidfile="$work/spool/job-1.pid"
for _ in $(seq 1 50); do
  [ -s "$pidfile" ] && break
  sleep 0.1
done
[ -s "$pidfile" ] || fail "payload worker pid file never appeared"
sleep 0.5
kill -9 "$(cat "$pidfile")" 2>/dev/null || fail "could not SIGKILL the payload worker"
wait "$client" || fail "migrated payload job failed: $(cat "$work/pmig.client")"
cmp -s "$work/pref.seq" "$work/pmig.seq" \
  || fail "migrated payload result differs from the local bistgen run"
say "payload .blif job: SIGKILLed worker migrated, bit-identical to local run"

# --- 6. payload bombs: typed rejections, daemon keeps serving --------

# Oversized, garbage and recursive-.subckt payloads; the mode's own
# postcondition is a successful Ping on the same daemon.
"$BISTD" chaos payload-bomb --port "$port" >/dev/null \
  || fail "daemon did not survive the payload bombs"
"$BISTD" shutdown --port "$port" >/dev/null
wait "$daemon_pid"; daemon_pid=""
say "payload bombs: typed rejections, daemon kept serving"

# --- 7. poison job: quarantine, restart, release, finish -------------

# Under a 1s CPU rlimit an x5378 run with 12 compaction trials (~7s CPU
# in a worker, where every resumed compaction leg first re-simulates the
# sequence, so three attempts resuming from each other's checkpoints
# cannot finish it) dies with SIGXCPU on every attempt; after 3 distinct
# crashed workers the job must be quarantined (typed reply, co-tenant
# unharmed), survive a restart, and on release resume from its kept
# checkpoint to a bit-identical result.
rm -rf "$work/spool"
"$BISTGEN" tgen "$work/x5378.blif" --seed 7 --compact-trials 12 \
  --directed 0 -o "$work/pref3.seq" >/dev/null \
  || fail "local reference run for the poison job failed"
start_daemon --workers 2 --worker-cpu 1
"$BISTD" submit tgen --payload "$work/x5378.blif" --seed 7 --trials 12 \
  --directed 0 --port "$port" --wait > "$work/poison.client" 2>&1 &
poison=$!
"$BISTD" submit tgen s27 --seed 7 --trials 50 --port "$port" --wait \
  > "$work/cotenant.seq" 2> "$work/cotenant.err" \
  || fail "co-tenant job failed alongside the poison job: $(cat "$work/cotenant.err")"
[ -s "$work/cotenant.seq" ] || fail "co-tenant job produced no output"
if wait "$poison"; then fail "poison job unexpectedly succeeded"; fi
# The two submits race for job ids, so the poison job's id is read from
# its client's "job N quarantined" reply.
poison_id=$(sed -n 's/.*job \([0-9][0-9]*\) quarantined.*/\1/p' "$work/poison.client" | head -n 1)
[ -n "$poison_id" ] \
  || fail "poison client got no typed quarantine reply: $(cat "$work/poison.client")"
"$BISTD" quarantine list --port "$port" > "$work/quar.out" \
  || fail "quarantine list failed"
grep -q "^job $poison_id .*crashes=3" "$work/quar.out" \
  || fail "quarantine list does not show job $poison_id: $(cat "$work/quar.out")"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "daemon with a quarantined job did not drain cleanly"
daemon_pid=""
start_daemon --workers 1   # no CPU limit: the released job must finish
"$BISTD" quarantine list --port "$port" | grep -q "^job $poison_id " \
  || fail "quarantine did not survive the restart"
"$BISTD" quarantine release "$poison_id" --port "$port" | grep -q "released job $poison_id" \
  || fail "quarantine release refused"
timeout 20 "$BISTD" wait "$poison_id" --port "$port" -o "$work/released.seq" 2>/dev/null \
  || fail "released job never finished"
cmp -s "$work/pref3.seq" "$work/released.seq" \
  || fail "released job's result differs from the local bistgen run"
"$BISTD" shutdown --port "$port" >/dev/null
wait "$daemon_pid"; daemon_pid=""
say "poison job: quarantined after 3 crashes, survived restart, released, bit-identical"

# --- 8. finished jobs: no spool files, only the newest remembered ----

# 70 cheap faultsim jobs, more than the 64 finished jobs the daemon
# remembers (lib/daemon/server.ml `retained`).
rm -rf "$work/spool"
"$BISTGEN" tgen s27 --seed 7 -o "$work/s27.seq" >/dev/null \
  || fail "could not generate the s27 vectors"
start_daemon --workers 2
jobs=70
for i in $(seq 1 $jobs); do
  "$BISTD" submit faultsim s27 --vectors "$work/s27.seq" --port "$port" --wait \
    > "$work/fs.out" 2>/dev/null || fail "faultsim job $i failed"
done
left=$(find "$work/spool" -name 'job-*.out' -o -name 'job-*.err' | wc -l)
[ "$left" -eq 0 ] || fail "$left result file(s) of finished jobs left in the spool"
"$BISTD" wait "$jobs" --port "$port" > "$work/newest.out" 2>/dev/null \
  || fail "newest job $jobs does not answer Wait"
cmp -s "$work/fs.out" "$work/newest.out" \
  || fail "newest job's Wait result differs from its submit result"
if "$BISTD" wait 1 --port "$port" >/dev/null 2> "$work/oldest.err"; then
  fail "oldest job 1 still answers Wait"
fi
grep -q "unknown job id 1" "$work/oldest.err" \
  || fail "oldest job: $(cat "$work/oldest.err")"
"$BISTD" shutdown --port "$port" >/dev/null
wait "$daemon_pid"; daemon_pid=""
say "finished jobs: no result files left, newest of $jobs answers Wait, oldest forgotten"

say "PASS"
