#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe and bin/bistd.exe with dune, then runs the
benchmark in a fresh process with BIST_JOBS and OCAMLRUNPARAM cleared, so
a stray export cannot switch on the domain pool or change GC settings.
The last line of standard output is the result object.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("pipeline_mid", "select_x5378", "bistd_jobs")
TIMEOUT_S = 170


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a source checkout "
                 "(dune-project and lib/ not found)")

    env = {k: v for k, v in os.environ.items()
           if k not in ("BIST_JOBS", "OCAMLRUNPARAM")}
    # No shared dune cache: the build writes only _build in the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/bistd.exe"],
        stdout=sys.stderr, env=dict(env, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [os.path.join("_build", "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_revision()]
    sys.stdout.flush()
    # A session of its own, so a timeout also takes down the daemon the
    # bistd_jobs workload starts.
    child = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit("perfbench: run exceeded %d s" % TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
