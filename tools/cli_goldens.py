"""Compare the help, usage and parse-error output of two source trees' CLI.

    python3 tools/cli_goldens.py OLD_TREE NEW_TREE

Runs every command line of ``tests/cli_cases.py`` (this checkout's copy)
through ``lndcalc.cli.main`` of each tree's ``src/``, once per ``COLUMNS``
width there, each tree in its own interpreter with empty stdin.  Prints the
command lines whose stdout, stderr or exit code differ, and exits 1 if any
does.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from cli_cases import ARGV, COLUMNS  # noqa: E402

RUN = """\
import contextlib, io, json, sys
from lndcalc.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out.append([stdout.getvalue(), stderr.getvalue(), code])
json.dump(out, sys.stdout)
"""


def outputs(tree: Path, columns: str) -> list:
    """[stdout, stderr, exit code] of every ARGV line under ``tree/src``."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), COLUMNS=columns)
    done = subprocess.run([sys.executable, "-c", RUN, json.dumps(ARGV)], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", nargs=2, type=Path)
    trees = p.parse_args(argv).trees
    differ = 0
    for columns in COLUMNS:
        old, new = (outputs(tree, columns) for tree in trees)
        for line, a, b in zip(ARGV, old, new):
            if a != b:
                differ += 1
                print(f"COLUMNS={columns} lndcalc {' '.join(line)}: "
                      f"{trees[0]} {a!r} != {trees[1]} {b!r}")
    print(f"outputs differing: {differ} of {len(ARGV) * len(COLUMNS)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
