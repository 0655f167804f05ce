"""Time one benchmark workload's ops from two source trees in one interpreter.

    python3 tools/ab_ops.py OLD_TREE NEW_TREE [--workload W] [--seed N] [--rounds R]

Loads each tree's ``src/lndcalc`` and ``bench/workloads.py``; a tree's
modules go back into ``sys.modules`` with each of its ops, so imports made
at call time stay in the tree.  Each cycle op runs ``--rounds`` times, the
trees alternating.  Printed: per-op minimum latencies and, per tree, the
ops/s of a cycle at the workload's weights.  Exits 1 if any op's answer text
(run-once ops included) differs between the trees.  It sizes a change; it
does not replace ``bench/run.py``.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

OWN = ("lndcalc", "workloads")


def load(tree: Path, workload: str, seed: int):
    """(modules, lndcalc, workload) of one tree, imported fresh."""
    for name in [m for m in sys.modules if m.split(".")[0] in OWN]:
        del sys.modules[name]
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import lndcalc
    import workloads

    del sys.path[:2]
    mods = {m: v for m, v in sys.modules.items() if m.split(".")[0] in OWN}
    return mods, lndcalc, workloads.build(workload, seed)


def answer(side, op) -> str:
    """The answer text of ``op`` with its tree's modules in place."""
    mods, lndcalc, _ = side
    sys.modules.update(mods)
    try:
        return op.render(op.call())
    except lndcalc.LndError as exc:
        return f"ERROR {exc.code}: {exc}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs=2, type=Path)
    p.add_argument("--workload", default="invert")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=40)
    args = p.parse_args(argv)
    sides = [load(tree.resolve(), args.workload, args.seed) for tree in args.trees]
    pools = [[op for op in wl.pool if op not in wl.once] for _, _, wl in sides]
    best = [[float("inf")] * len(pools[0]) for _ in sides]
    for r in range(args.rounds):
        for j in range(len(pools[0])):
            for k in ((0, 1) if r % 2 else (1, 0)):
                start = time.perf_counter()
                answer(sides[k], pools[k][j])
                best[k][j] = min(best[k][j], time.perf_counter() - start)
    differ = [a.name for a, b in zip(sides[0][2].pool, sides[1][2].pool)
              if answer(sides[0], a) != answer(sides[1], b)]
    print(f"{'op':24} {'old ms':>9} {'new ms':>9} {'new/old':>8}")
    for j, op in enumerate(pools[0]):
        a, b = best[0][j] * 1e3, best[1][j] * 1e3
        print(f"{op.name:24} {a:9.3f} {b:9.3f} {b / a:8.3f}")
    for k, (tree, (_, _, wl)) in enumerate(zip(args.trees, sides)):
        index = {id(op): j for j, op in enumerate(pools[k])}
        cycle = sum(w * statistics.mean(best[k][index[id(op)]] for op in variants)
                    for w, variants in wl.slots)
        print(f"{tree}: {sum(w for w, _ in wl.slots) / cycle:.0f} ops/s")
    print(f"answers differing: {len(differ)} of {len(sides[0][2].pool)}", *differ)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
