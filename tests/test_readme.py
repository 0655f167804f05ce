"""The ``$ lndcalc ...`` examples of README.md, run through ``cli.main``: each
printed block must match the README byte for byte."""

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


def test_the_readme_has_its_eleven_examples():
    assert len(EXAMPLES) == 11


@pytest.mark.parametrize("command, printed", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_its_block(command, printed, capsys):
    argv = shlex.split(command)
    assert argv[0] == "lndcalc"
    main(argv[1:])
    assert capsys.readouterr().out == printed
