"""The ``$ lndcalc ...`` examples of README.md, run through ``cli.main``: each
printed block must match the README byte for byte.  Each ``python`` block (the
library quick tour) is executed, so its imports and asserts stay current."""

import re
import shlex
from pathlib import Path

import pytest

from lndcalc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, str]]:
    """(command line, printed block) for every example in a console block."""
    out = []
    for block in re.findall(r"```console\n(.*?)```", README.read_text(), re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, printed = chunk.partition("\n")
            out.append((command, printed.rstrip("\n") + "\n"))
    return out


EXAMPLES = _examples()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_the_readme_has_its_fifteen_examples():
    assert len(EXAMPLES) == 15


@pytest.mark.parametrize("command, printed", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_its_block(command, printed, capsys):
    argv = shlex.split(command)
    assert argv[0] == "lndcalc"
    main(argv[1:])
    assert capsys.readouterr().out == printed


def test_the_readme_has_its_quick_tour():
    assert len(PYTHON_BLOCKS) == 1


@pytest.mark.parametrize("source", PYTHON_BLOCKS)
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})
