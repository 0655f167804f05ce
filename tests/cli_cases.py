"""Command lines whose output is argparse's own: help, usage and parse errors.

``main`` gives arguments and ``-h`` only to the subcommand named first, so
each of these must print what the parser with every subcommand built prints.
``tests/test_cli.py`` checks that inside one tree, ``tools/cli_goldens.py``
across two trees.  No line reads stdin.
"""

NAMES = ("mul", "partial", "project", "taylor", "invert", "verify", "compose",
         "log-aut", "exp-der", "aut-series", "map-series", "apply-series",
         "invariants", "relation", "kernel", "weitzenboeck")

PER_NAME = (["-h"], [], ["--bogus", "1"], ["x1", "x1", "x1"], ["--cap", "x"],
            ["--degree", "x"], ["--max-order", "x"], ["--n", "x"],
            ["--map", "chi"])

ARGV = [[], ["-h"], ["frobnicate"]] + [[name] + tail for name in NAMES
                                       for tail in PER_NAME]

COLUMNS = ("80", "200")
