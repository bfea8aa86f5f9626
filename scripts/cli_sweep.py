#!/usr/bin/env python3
"""Byte-identity sweep of the command line: one line per invocation.

Runs every subcommand on the bundled fixtures, the two antiparallel inputs
of ``perfbench/data`` and two digons written to a temporary directory, at
N = 2..5, each in a fresh interpreter that imports the library from the
checkout's ``src/``.  Each line holds the argv (paths relative to the
checkout, ``<tmp>`` for the temporary inputs), the exit code and the
sha256 of stdout, so two checkouts compare with ``diff``:

    python3 scripts/cli_sweep.py > after.txt
    python3 scripts/cli_sweep.py --root ../parent > before.txt
    diff before.txt after.txt

A tally of the exit codes goes to stderr.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ORDERS = (2, 3, 4, 5)
FIXTURES = ("diamond", "ffl", "ffl_branch", "loop4", "biparallel", "bifan", "braid",
            "trapezohedron_m2", "theta", "dumbbell", "torus_minimal")
BENCH_INPUTS = ("antiparallel_pair", "antiparallel_tail")
WRITTEN = {"digon": "1 2\n2 1\n", "digon_tail": "1 2\n2 1\n2 3\n"}
COMMANDS = (
    ("betti", "--format", "json"), ("betti", "--format", "md"), ("betti", "--format", "csv"),
    ("omega", "--show-basis", "--format", "md"), ("omega", "--show-basis", "--format", "json"),
    ("classify",), ("cycles",),
    ("check", "--format", "md"), ("check", "--format", "json"),
)


def inputs(root: Path, tmp: Path):
    """(path to pass, path to print, --kind) for every input."""
    data = root / "src" / "mayerpath" / "fixtures" / "data"
    for name in FIXTURES:
        simplicial = name == "torus_minimal"
        path = data / (name + (".simplices" if simplicial else ".edges"))
        yield path, path.relative_to(root), "simplicial" if simplicial else "digraph"
    for name in BENCH_INPUTS:
        path = root / "perfbench" / "data" / f"{name}.edges"
        yield path, path.relative_to(root), "digraph"
    for name, text in WRITTEN.items():
        path = tmp / f"{name}.edges"
        path.write_text(text, encoding="utf-8")
        yield path, f"<tmp>/{name}.edges", "digraph"


def invocations(root: Path, tmp: Path):
    """(argv to run, argv to print) pairs, in a fixed order."""
    for path, shown, kind in inputs(root, tmp):
        for N in ORDERS:
            for command in COMMANDS:
                tail = ["--kind", kind, "--N", str(N), *command[1:]]
                yield ([command[0], "--input", str(path), *tail],
                       [command[0], "--input", str(shown), *tail])
    for fmt in ("md", "json"):
        yield ["report", "--format", fmt], ["report", "--format", fmt]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to sweep (default: the one holding this script)")
    args = parser.parse_args()
    root = args.root.resolve()
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    tally: collections.Counter[int] = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for argv, shown in invocations(root, Path(tmp)):
            done = subprocess.run([sys.executable, "-m", "mayerpath.cli", *argv],
                                  cwd=root, env=env, capture_output=True)
            tally[done.returncode] += 1
            digest = hashlib.sha256(done.stdout).hexdigest()
            print(" ".join(shown), done.returncode, digest, flush=True)
    print(f"{sum(tally.values())} invocations; exit codes "
          + ", ".join(f"{code}: {count}" for code, count in sorted(tally.items())),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
