"""The module layering of the package, read from the import statements.

The sparse core knows no carrier, each carrier knows no other, and the
automorphisms of A(n, m) keep their Jacobian on the Weyl carrier instead of
going through ``CommPoly``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lndcalc"
CARRIERS = {"commpoly", "weyl", "freealg"}


def imported_modules(name: str) -> set[str]:
    """The package modules that ``lndcalc/<name>.py`` imports, anywhere in it
    (relative or absolute, at top level or inside a function)."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module != "lndcalc" and not module.startswith("lndcalc."):
                    continue
                module = module[len("lndcalc."):]
            names = [module] if module else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name[len("lndcalc."):] for alias in node.names
                     if alias.name.startswith("lndcalc.")]
        else:
            continue
        found |= {name.split(".")[0] for name in names}
    return found


def test_the_reader_finds_the_package_imports():
    # a reader that finds nothing would pass every test below
    assert imported_modules("weyl") >= {"errors", "sparse"}
    assert "commpoly" in imported_modules("__init__")


def test_the_sparse_core_imports_no_carrier():
    assert not imported_modules("sparse") & CARRIERS


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
def test_a_carrier_imports_no_other_carrier(carrier):
    assert not imported_modules(carrier) & (CARRIERS - {carrier})


def test_automorphisms_do_not_import_commpoly():
    assert "commpoly" not in imported_modules("automorphisms")
