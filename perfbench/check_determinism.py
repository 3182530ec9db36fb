#!/usr/bin/env python3
"""Determinism self-check for the repository benchmark.

For each workload: two untraced runs and one traced run with seed A, in
separate processes, must report identical virtual-clock metrics and counts
(the "[perfbench] virtual {...}" line on stderr), and a run with seed B
must pass every output check. Run from the root of a checkout:

    python3 perfbench/check_determinism.py [--workloads lat12,voice_open]
                                          [--seeds 7,8] [--seconds 10]

Exits non-zero on the first difference or failed run. Takes about two
minutes per workload on a 4-core host.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ["lat12", "voice_open", "live_ingest", "cluster_hedge"]
MARK = "[perfbench] virtual "


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: "
                         f"exit {p.returncode}")
    json.loads(p.stdout.strip().splitlines()[-1])  # the result object
    lines = [l for l in p.stderr.splitlines() if l.startswith(MARK)]
    if len(lines) != 1:
        raise SystemExit(f"FAIL {workload}: no virtual-metrics line")
    return json.loads(lines[0][len(MARK):])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="7,8")
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    seed_a, seed_b = (int(s) for s in args.seeds.split(","))
    for w in args.workloads.split(","):
        first = run(w, seed_a, args.seconds, 0)
        for label, again in (("untraced rerun", run(w, seed_a, args.seconds, 0)),
                             ("traced run", run(w, seed_a, args.seconds, 1))):
            if again != first:
                diff = {k: (first.get(k), again.get(k))
                        for k in set(first) | set(again)
                        if first.get(k) != again.get(k)}
                raise SystemExit(f"FAIL {w} seed {seed_a}: {label} differs: "
                                 f"{diff}")
        run(w, seed_b, args.seconds, 0)
        print(f"ok {w}: seed {seed_a} identical across 3 processes "
              f"(1 traced); seed {seed_b} passes its checks", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
