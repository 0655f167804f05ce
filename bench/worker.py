"""Run one workload in this interpreter and print one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

``setup``    import the library, build the seeded inputs, warm up, print the
             monotonic clock reading at which the first op could start.
``measure``  the same, then a closed loop (one client, next op sent when the
             previous returns) over whole cycles until ``--seconds`` have
             passed, then the workload's run-once ops; then every answer is
             checked.
``trace``    a fixed op list (``TRACE_CYCLES`` cycles), each op run once
             untraced and once under the tracer; the outputs must match.

The ``bench/run.py`` driver spawns this script; it is not meant to be run
by hand except to debug a workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Cycles in a traced run; fixed so that call counts repeat for a seed.
TRACE_CYCLES = {"invert": 2, "kernel": 2, "cli-mix": 20}


class Tally:
    """Outputs and outcomes of the ops run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.errors = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.texts: list[str] = []
        self.keys: list[int] = []
        self._first: dict[int, tuple[object, str, int]] = {}

    def run(self, op, lndcalc) -> None:
        """Time one op, including rendering its answer as canonical text
        (what the command line tool prints), and record the outcome."""
        start = time.perf_counter()
        try:
            text = op.render(op.call())
        except lndcalc.LndError as exc:
            text = f"ERROR {exc.code}: {exc}"
        self.latencies.append(time.perf_counter() - start)
        self.keys.append(id(op))
        self.texts.append(text)
        if text.startswith("ERROR "):
            self.errors += 1
            if not op.defect:
                self.fail(f"{op.name}: unexpected {text[:120]}")
            return
        first = self._first.get(id(op))
        if first is None:
            self._first[id(op)] = (op, text, 1)
        elif first[1] != text:
            self.fail(f"{op.name}: answer changed between runs of one input")
        else:
            self._first[id(op)] = (op, text, first[2] + 1)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def check_answers(self) -> None:
        """Check each distinct answer once; a wrong one fails every run of it."""
        for op, text, count in self._first.values():
            reason = op.check(text)
            if reason:
                self.fail(f"{op.name}: {reason}", count)


def _setup(name: str, seed: int):
    """Import, build inputs and warm up; returns the workload and library."""
    if not (SRC / "lndcalc" / "__init__.py").is_file():
        sys.exit(f"worker: no lndcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lndcalc

    import workloads

    wl = workloads.build(name, seed)
    warm = Tally()
    for op in wl.warmup:
        warm.run(op, lndcalc)
    return wl, lndcalc


def _measure(wl, lndcalc, seconds: float) -> dict:
    """Closed loop over whole cycles.  Each distinct input runs many times;
    its latency is the minimum over those runs, since the host's speed
    drifts by up to 2x on a scale of seconds to a minute.  The percentiles
    are taken over one such value per op run, so inputs weigh by how often
    they ran, and ops_per_s is the closed-loop rate those latencies give over
    the cycles (a run-once op has a single, unrepeated latency)."""
    tally = Tally()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in wl.cycle():
            tally.run(op, lndcalc)
    cycled = len(tally.keys)
    for op in wl.once:
        tally.run(op, lndcalc)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.check_answers()
    best: dict[int, float] = {}
    for key, lat in zip(tally.keys, tally.latencies):
        best[key] = min(lat, best.get(key, lat))
    mix = [best[key] for key in tally.keys]
    p90 = statistics.quantiles(mix, n=10, method="inclusive")[8]
    metrics = {
        "op_p50_ms": {"value": statistics.median(mix) * 1000, "unit": "ms"},
        "op_p90_ms": {"value": p90 * 1000, "unit": "ms"},
        "ops_per_s": {"value": cycled / sum(mix[:cycled]), "unit": "1/s"},
        "ok_ratio": {"value": (len(mix) - tally.errors) / len(mix), "unit": "ratio"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return _result(tally, metrics, {"samples": len(mix), "inputs": len(best),
                                    "beyond_p90": sum(1 for x in mix if x > p90),
                                    "wall_s": time.perf_counter() - start})


def _trace(wl, lndcalc, name: str, seed: int) -> dict:
    """Each op runs twice, untraced and traced, in alternating order, so the
    host's drifting speed falls on both sides of the overhead ratio."""
    import tracer as tracing

    ops = [op for _ in range(TRACE_CYCLES[name]) for op in wl.cycle()] + wl.once
    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.run(op, lndcalc)
                continue
            tracer.begin_op()
            tracer.install()
            try:
                traced.run(op, lndcalc)
            finally:
                tracer.restore()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{name}-{seed}.tsv")

    traced.check_answers()
    if traced.texts != plain.texts:
        traced.fail("tracing changed an output")
    traced_s, plain_s = sum(traced.latencies), sum(plain.latencies)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = {"value": traced_s / plain_s - 1, "unit": "ratio"}
    metrics["trace.wall_ms"] = {"value": traced_s * 1000, "unit": "ms"}
    return _result(traced, metrics, {"samples": len(ops), "spans": len(tracer.spans)})


def _result(tally: Tally, metrics: dict, info: dict) -> dict:
    return {"correct": tally.failed == 0, "attempted": len(tally.latencies),
            "failed": tally.failed, "errors": tally.errors, "reasons": tally.reasons,
            "metrics": metrics, "info": info}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = p.parse_args(argv)
    wl, lndcalc = _setup(args.workload, args.seed)
    ready = time.monotonic()
    if args.mode == "setup":
        out = {"ready": ready}
    elif args.mode == "measure":
        out = _measure(wl, lndcalc, args.seconds)
    else:
        out = _trace(wl, lndcalc, args.workload, args.seed)
    out["ready"] = ready
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
