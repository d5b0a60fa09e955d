#!/usr/bin/env bash
# interrupt-smoke: end-to-end gate for the headline resilience invariant.
#
# An interrupted-then-resumed run must produce a bit-identical result to
# an uninterrupted one, whether the preemption came from --deadline or
# from SIGTERM; a damaged or mismatched checkpoint must be a clean exit
# 2, never a crash or a silently wrong resume.
#
# Run from the repo root (the Makefile does): ./scripts/interrupt_smoke.sh

set -u

BISTGEN=_build/default/bin/bistgen.exe
INJECT=_build/default/bin/inject.exe

say()  { printf 'interrupt-smoke: %s\n' "$*"; }
fail() { printf 'interrupt-smoke: FAIL: %s\n' "$*" >&2; exit 1; }

dune build bin/bistgen.exe bin/inject.exe || fail "build failed"
[ -x "$BISTGEN" ] || fail "missing $BISTGEN"
[ -x "$INJECT" ]  || fail "missing $INJECT"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# --- tgen: deadline preemption loop ----------------------------------
#
# The deadline is progress-gated: it only fires once at least one round
# has committed, so even a microscopic budget is guaranteed to make
# forward progress each leg and the resume loop must terminate.

tgen_deadline_loop() {
  local circuit=$1 deadline=$2
  local ref="$work/$circuit.ref" out="$work/$circuit.seq" ckpt="$work/$circuit.ckpt"
  local legs=0 preempts=0 st resume=()

  "$BISTGEN" tgen "$circuit" --seed 7 -j 1 -o "$ref" >/dev/null 2>&1 \
    || fail "$circuit: reference run failed"

  while :; do
    legs=$((legs + 1))
    [ "$legs" -le 500 ] || fail "$circuit: resume loop did not converge"
    "$BISTGEN" tgen "$circuit" --seed 7 -j 1 -o "$out" \
      --deadline "$deadline" --checkpoint "$ckpt" ${resume[@]+"${resume[@]}"} \
      >/dev/null 2>&1
    st=$?
    case $st in
      0) break ;;
      3)
        preempts=$((preempts + 1))
        [ -f "$ckpt" ] || fail "$circuit: exit 3 but no checkpoint written"
        resume=(--resume "$ckpt")
        ;;
      *) fail "$circuit: unexpected exit $st on leg $legs" ;;
    esac
  done

  [ "$preempts" -ge 1 ] || fail "$circuit: deadline never preempted (deadline too long?)"
  [ ! -f "$ckpt" ] || fail "$circuit: checkpoint not removed after success"
  cmp -s "$ref" "$out" || fail "$circuit: resumed result differs from uninterrupted run"
  say "tgen $circuit: bit-identical after $preempts deadline preemption(s), $legs legs"
}

tgen_deadline_loop s27  0.0001
tgen_deadline_loop x344 0.05

# --- PPSFP core: parallel deadline preemption ------------------------
#
# Preemption inside sharded fault simulation must be invisible to
# checkpoint/resume: payloads carry engine-round state, not simulator
# state. Every leg runs with the parallel path forced on
# (BIST_SHARD_MIN=0 shards even on a 1-core host) under -j 2. The final
# output must be cmp-identical to the uninterrupted sequential reference
# from the loop above — one assertion covering interrupt/resume and
# --jobs width at once.

ppsfp_circuit=x344
ref="$work/$ppsfp_circuit.ref"   # written by the deadline loop above
out="$work/ppsfp.seq"
ckpt="$work/ppsfp.ckpt"
legs=0 preempts=0 resume=()
while :; do
  legs=$((legs + 1))
  [ "$legs" -le 500 ] || fail "ppsfp: resume loop did not converge"
  BIST_SHARD_MIN=0 "$BISTGEN" tgen "$ppsfp_circuit" --seed 7 -j 2 -o "$out" \
    --deadline 0.05 --checkpoint "$ckpt" ${resume[@]+"${resume[@]}"} \
    >/dev/null 2>&1
  st=$?
  case $st in
    0) break ;;
    3)
      preempts=$((preempts + 1))
      [ -f "$ckpt" ] || fail "ppsfp: exit 3 but no checkpoint written"
      resume=(--resume "$ckpt")
      ;;
    *) fail "ppsfp: unexpected exit $st on leg $legs" ;;
  esac
done
[ "$preempts" -ge 1 ] || fail "ppsfp: deadline never preempted"
[ ! -f "$ckpt" ] || fail "ppsfp: checkpoint not removed after success"
cmp -s "$ref" "$out" \
  || fail "ppsfp: parallel interrupted run differs from sequential reference"
say "tgen $ppsfp_circuit (ppsfp, -j 2, sharding forced): bit-identical after $preempts preemption(s), $legs legs"

# --- tgen: SIGTERM preemption ----------------------------------------

sigterm_circuit=x344
ref="$work/$sigterm_circuit.ref"   # written by the deadline loop above
out="$work/sigterm.seq"
ckpt="$work/sigterm.ckpt"

killed=0
for delay in 0.10 0.05 0.02; do
  rm -f "$ckpt" "$out"
  "$BISTGEN" tgen "$sigterm_circuit" --seed 7 -j 1 -o "$out" \
    --checkpoint "$ckpt" >/dev/null 2>&1 &
  pid=$!
  sleep "$delay"
  kill -TERM "$pid" 2>/dev/null
  wait "$pid"
  st=$?
  if [ "$st" -eq 3 ]; then killed=1; break; fi
  # The run finished before the signal landed; retry with a shorter delay.
  [ "$st" -eq 0 ] || fail "SIGTERM leg exited $st (expected 0 or 3)"
done
[ "$killed" -eq 1 ] || fail "could not preempt $sigterm_circuit with SIGTERM"
[ -f "$ckpt" ] || fail "SIGTERM: exit 3 but no checkpoint written"

# A checkpoint interrupted mid-write would fail the CRC; keep a copy for
# the corruption check below, then resume to completion.
cp "$ckpt" "$work/valid.ckpt"
legs=0
while :; do
  legs=$((legs + 1))
  [ "$legs" -le 500 ] || fail "SIGTERM resume loop did not converge"
  "$BISTGEN" tgen "$sigterm_circuit" --seed 7 -j 1 -o "$out" \
    --checkpoint "$ckpt" --resume "$ckpt" >/dev/null 2>&1 && break
  st=$?
  [ "$st" -eq 3 ] || fail "SIGTERM resume: unexpected exit $st"
done
cmp -s "$ref" "$out" || fail "SIGTERM: resumed result differs from uninterrupted run"
say "tgen $sigterm_circuit: bit-identical after SIGTERM (resumed in $legs leg(s))"

# --- damaged / mismatched checkpoints are typed failures -------------

truncated="$work/truncated.ckpt"
head -c 40 "$work/valid.ckpt" > "$truncated"
"$BISTGEN" tgen "$sigterm_circuit" --seed 7 -j 1 -o "$work/x.seq" \
  --resume "$truncated" >/dev/null 2>&1
[ $? -eq 2 ] || fail "truncated checkpoint: expected exit 2"

"$BISTGEN" tgen s27 --seed 7 -j 1 -o "$work/x.seq" \
  --resume "$work/valid.ckpt" >/dev/null 2>&1
[ $? -eq 2 ] || fail "wrong-circuit checkpoint: expected exit 2"
say "damaged and mismatched checkpoints exit 2"

# --- inject: deadline preemption loop --------------------------------
#
# The campaign may legitimately exit 1 (escapes found); determinism means
# the resumed run's report AND exit code equal the uninterrupted run's.

inj_args=(s27 x298 --count 120 --seed 5 -j 1)
inj_ref="$work/inject.ref"
"$INJECT" "${inj_args[@]}" > "$inj_ref" 2>/dev/null
inj_ref_st=$?
[ "$inj_ref_st" -eq 0 ] || [ "$inj_ref_st" -eq 1 ] \
  || fail "inject reference exited $inj_ref_st"

ckpt="$work/inject.ckpt"
out="$work/inject.out"
legs=0 preempts=0 resume=()
while :; do
  legs=$((legs + 1))
  [ "$legs" -le 500 ] || fail "inject resume loop did not converge"
  "$INJECT" "${inj_args[@]}" --deadline 0.05 --checkpoint "$ckpt" \
    ${resume[@]+"${resume[@]}"} > "$out" 2>/dev/null
  st=$?
  case $st in
    3)
      preempts=$((preempts + 1))
      [ -f "$ckpt" ] || fail "inject: exit 3 but no checkpoint written"
      resume=(--resume "$ckpt")
      ;;
    *) break ;;
  esac
done
[ "$st" -eq "$inj_ref_st" ] || fail "inject: final exit $st, reference exited $inj_ref_st"
[ "$preempts" -ge 1 ] || fail "inject: deadline never preempted"
[ ! -f "$ckpt" ] || fail "inject: checkpoint not removed after completion"
cmp -s "$inj_ref" "$out" || fail "inject: resumed report differs from uninterrupted run"
say "inject s27+x298: identical report after $preempts deadline preemption(s)"

# --- double signal is a force-quit (exit 130) ------------------------
#
# One signal asks for a cooperative checkpoint-and-exit-3; a second
# means "now" and must exit 130 immediately, bistgen and inject alike.
# SIGTERM then SIGINT back-to-back: both feed the same counting handler,
# and unlike a repeated SIGTERM the pair cannot coalesce in the kernel,
# so the second is already pending before the cooperative exit can run.

double_signal() {
  local label=$1; shift
  local st=0 killed=0 delay pid
  for delay in 0.30 0.15 0.05; do
    "$@" >/dev/null 2>&1 &
    pid=$!
    sleep "$delay"
    kill -TERM "$pid" 2>/dev/null
    kill -INT "$pid" 2>/dev/null
    wait "$pid"
    st=$?
    if [ "$st" -eq 130 ]; then killed=1; break; fi
    # Finished (0/1) before the signals landed; retry with a shorter
    # delay. Exit 3 would mean the force-quit lost to the cooperative
    # path even with both signals pending — a real regression.
    case $st in 0|1) ;; *) fail "$label: double signal exited $st" ;; esac
  done
  [ "$killed" -eq 1 ] || fail "$label: double signal never forced exit 130"
  say "$label: double signal force-quits with exit 130"
}

double_signal "bistgen" "$BISTGEN" tgen x1488 --seed 7 -j 1 \
  --compact-trials 5000 -o "$work/ds.seq" --checkpoint "$work/ds.ckpt"
double_signal "inject" "$INJECT" x1488 --count 4000 --seed 5 -j 1 \
  --checkpoint "$work/ds-inject.ckpt"

say "PASS"
