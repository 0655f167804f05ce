"""lndcalc benchmark: one workload per invocation, every metric by name.

    python3 bench/run.py --workload {invert,kernel,cli-mix} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Each workload runs in a fresh interpreter
(``bench/worker.py``) that imports the library from ``src/``; all of its
inputs come from ``--seed``.  With ``--trace 0`` the end-to-end metrics are
printed: op latency median and 90th percentile and ops per second (from
each input's best latency over its repeats in the run, see
``bench/worker.py``), the share of ops that returned an answer, set-up time
(median over several fresh interpreters) and peak resident memory.  With
``--trace 1`` a fixed op list runs untraced and under ``bench/tracer.py``,
and the per-layer metrics are printed.  The last line of standard output is
one JSON object; the exit status is 1 when any answer is wrong, 2 when the
sources are missing.  ``bench/baseline.json`` holds the figures measured at
the commit that introduced the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("invert", "kernel", "cli-mix")
# Fresh interpreters that only set up; with the measuring one they give the
# median set-up time.
SETUP_PROBES = 8
TIME_LIMIT_S = 170


def _spawn(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Run the worker; returns (seconds from spawn to ready, its result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise SystemExit(f"bench: worker ({mode}) exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="lndcalc benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "lndcalc" / "__init__.py").is_file():
        print(f"bench: no lndcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            _, result = _spawn(args, "trace", deadline)
        else:
            setups = [_spawn(args, "setup", deadline)[0] for _ in range(SETUP_PROBES)]
            setup, result = _spawn(args, "measure", deadline)
            result["metrics"]["setup_s"] = {
                "value": statistics.median(setups + [setup]), "unit": "s"}
    except subprocess.TimeoutExpired:
        print("bench: time limit exceeded", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    info = " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in result["info"].items())
    print(f"workload={args.workload} seed={args.seed} attempted={result['attempted']} "
          f"errors={result['errors']} failed={result['failed']} {info}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    for reason in result["reasons"]:
        print(f"  WRONG {reason}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
