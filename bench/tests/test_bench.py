"""Tests of the benchmark itself: tracing is transparent, its counts repeat,
each workload reaches the layer it exists for, and the command refuses to
run without the library sources.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import lndcalc  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Tally  # noqa: E402

# Ops cheap enough for a unit test: the stretch inversion, the large kernel
# components and the heaviest named maps stay out.
LIGHT = {
    "invert": lambda op: op.name.startswith(("tame:p", "tame:a10")) or op.name == "named:a20",
    "kernel": lambda op: op.name in {"oracle:f2:4", "oracle:f3:3", "oracle:f2:5",
                                     "enum:f2:4", "enum:f2:5"}
    or not op.name.startswith(("oracle:f", "enum:")),
    "cli-mix": lambda op: True,
}

# Layers each workload exists to exercise (see BENCHMARK.json).
INTENDED = {
    "invert": ["weyl.mul.calls", "projections.system_init.calls",
               "projections.derive.calls", "projections.phi.calls",
               "projections.taylor_decompose.calls", "automorphisms.apply.calls"],
    "kernel": ["linalg.elim.calls", "linalg.elim.cells", "freealg.mul.calls",
               "projections.derive.calls"],
    "cli-mix": ["cli.main.calls", "parsing.parse.calls", "formatting.render.calls",
                "commpoly.mul.calls", "freealg.mul.calls", "weyl.mul.calls",
                "projections.derive.calls", "projections.phi.calls"],
}


def light_ops(name: str, seed: int = 3):
    return [op for op in workloads.build(name, seed).pool if LIGHT[name](op)]


def traced_pass(ops):
    tracer = tracing.Tracer()
    tally = Tally()
    tracer.install()
    try:
        for op in ops:
            tracer.begin_op()
            tally.run(op, lndcalc)
    finally:
        tracer.restore()
    return tracer, tally


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_tracing_leaves_outputs_byte_identical(name):
    ops = light_ops(name)
    plain = Tally()
    for op in ops:
        plain.run(op, lndcalc)
    _, traced = traced_pass(ops)
    assert traced.texts == plain.texts
    traced.check_answers()
    assert traced.failed == 0, traced.reasons


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_counts_repeat_for_a_seed(name):
    first, _ = traced_pass(light_ops(name))
    second, _ = traced_pass(light_ops(name))
    assert first.counters == second.counters
    assert any(c["term_pairs"] for c in first.counters.values())


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_intended_layers_record_work(name):
    tracer, _ = traced_pass(light_ops(name))
    metrics = tracer.layer_metrics()
    for metric in INTENDED[name]:
        assert metrics[metric]["value"] > 0, metric


def test_restore_puts_every_binding_back():
    mods = lndcalc.automorphisms, lndcalc.weyl, lndcalc.invariants, lndcalc.linalg

    def bindings():
        return [lndcalc.weyl_mul, mods[0].weyl_mul, mods[1].weyl_mul, mods[2].nullspace,
                mods[3].nullspace, mods[2].rank, lndcalc.cli.main,
                lndcalc.CommPoly.__dict__["__mul__"],
                lndcalc.LndSystem.__dict__["derive"]]

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = bindings()
        assert all(a is not b for a, b in zip(before, during))
    finally:
        tracer.restore()
    assert all(a is b for a, b in zip(before, bindings()))


def test_cycles_keep_the_weights_whatever_the_seed():
    for seed in (1, 2):
        wl = workloads.build("kernel", seed)
        names = [op.name for op in wl.cycle()]
        assert len(names) == sum(w for w, _ in wl.slots)
        assert names.count("oracle:f2:5") == 21 and names.count("oracle:f2:6") == 4
        assert [op.name for op in wl.once] == ["oracle:f2:8", "oracle:f3:4", "enum:f2:6"]


def _run(cwd, *extra):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-mix",
                           "--seed", "1", "--seconds", "1", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_prints_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(ROOT, "--trace", trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {m["name"]: m["unit"] for m in spec[kind]} == \
            {k: v["unit"] for k, v in result["metrics"].items()}


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
