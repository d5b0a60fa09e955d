.PHONY: all build test test-parallel lint trace-smoke fuzz-smoke interrupt-smoke daemon-smoke sat-smoke blif-smoke perf-smoke work-gate check smoke bench bench-json clean

all: build

build:
	dune build @all

test:
	dune runtest

# The same tier-1 suite with the domain pool active: BIST_JOBS=2 shards
# every fault simulation of more than one 62-fault group over two
# domains, whose results are bit-identical by the DESIGN.md §8
# invariant — so the exact same tests must pass unchanged.
test-parallel:
	BIST_JOBS=2 dune runtest --force

# Static-analysis gate over every registry circuit. The warning budget
# is pinned to the current known findings (x641 dangling/unobservable
# cones, x820/x1488 redundant tie-offs, the x5378 uninitializable state
# core); a new warning anywhere fails the build.
lint:
	dune build bin/lint.exe
	dune exec bin/lint.exe -- --quiet --max-warnings 8

# Observability gate: a traced s27 generation run must produce a
# parseable Chrome trace-event document (validated by the from-scratch
# JSON parser behind `bistgen trace-check`).
trace-smoke:
	dune build bin/bistgen.exe
	dune exec bin/bistgen.exe -- tgen s27 --trace _build/trace-smoke.json -o /dev/null
	dune exec bin/bistgen.exe -- trace-check _build/trace-smoke.json

# Parser robustness gate: thousands of seeded random mutations of the
# registry's .bench sources must either parse or raise Parse_error —
# any other exception is a crash the CLI would expose.
fuzz-smoke:
	dune exec test/test_main.exe -- test fuzz

# Resilience gate (DESIGN.md §10): deadline- and SIGTERM-preempted runs,
# resumed from their checkpoints, must reproduce the uninterrupted
# result bit for bit; damaged or mismatched checkpoints must exit 2.
interrupt-smoke:
	./scripts/interrupt_smoke.sh

# Daemon robustness gate (DESIGN.md §11): a SIGKILLed worker's job
# migrates to a fresh worker bit-identically, a full queue answers with
# a typed rejection, hostile clients (truncated/garbage/slow frames)
# leave the daemon serving, and a SIGTERMed daemon parks its queue and
# recovers it on restart.
daemon-smoke:
	./scripts/daemon_smoke.sh

# Exact-untestability gate (DESIGN.md §12): the SAT pass must prove the
# known x298 untestable set, refute everything else (at least one fault
# via a SAT-derived, simulator-validated test), and respect the frame
# bound exactly on the boundary fault N6/0.
sat-smoke:
	./scripts/sat_smoke.sh

# BLIF frontend gate (DESIGN.md §14): every checked-in examples/*.blif
# parses, the Yosys-flavoured s27 runs lint + tgen unmodified, and the
# .bench and .blif serializations of one circuit produce byte-identical
# fault tables for the same sequence — sequentially and with BIST_JOBS=2.
blif-smoke:
	./scripts/blif_smoke.sh

# Performance gate (DESIGN.md §13): appends a fresh fault-table bench
# record (jobs=2) to BENCH_results.json, fails on any identical=false in
# the trajectory, and on multi-core hosts fails if the x1488/x5378
# speedup regressed >20% below the best recorded value (on cores=1 the
# speedup assertion is skipped with a warning — the shards time-slice
# on one core, so there is no speedup to gate).
perf-smoke:
	dune build bench/main.exe
	dune exec bench/main.exe -- --perf-smoke

# Work gate (DESIGN.md §9): every Obs work counter of T0 generation,
# T0 compaction and Scheme.execute at n = 4 on s27, x298, x526 and
# x1488, and of one x5378 execute, must equal bench/work_expected.txt.
# The counts depend on neither the host nor --jobs, so the gate can fail
# on a one-core host. A change that moves them regenerates the file
# (dune exec bench/main.exe -- --work > bench/work_expected.txt) and
# explains the diff in CHANGES.md.
work-gate:
	dune build bench/main.exe
	dune exec bench/main.exe -- --work > _build/work-gate.txt
	diff -u bench/work_expected.txt _build/work-gate.txt

check: test test-parallel lint trace-smoke fuzz-smoke interrupt-smoke daemon-smoke sat-smoke blif-smoke perf-smoke work-gate

# Acceptance gate: the unit/property suites plus the seeded s27
# fault-injection campaign (200 faults, hardened defense) — every fault
# must be corrected or detected, with zero silent escapes.
smoke: test
	dune exec bin/inject.exe -- --smoke

# The ablation-quality table, then the paper's tables over the
# evaluation suite up to x1488 (the two largest circuits skipped).
bench:
	dune exec bench/main.exe
	dune exec bin/tables.exe -- x298 x344 x382 x400 x526 x641 x820 x1196 x1423 x1488

# Append a timed fault-table run record (sequential vs --jobs pool,
# with a bit-identity check) to the committed perf trajectory.
bench-json:
	dune exec bench/main.exe -- --json BENCH_results.json

clean:
	dune clean
