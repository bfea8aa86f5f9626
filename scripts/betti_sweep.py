#!/usr/bin/env python3
"""Identity sweep of ``betti_table``: one line per seeded digraph.

Case i draws from ``random.Random(i)`` a digraph on 3-11 vertices, with
antiparallel pairs allowed in every odd case, at N = 2 + (i // 2) % 4,
and redraws until the paths of the dimensions the table reads
(0 .. max_dim + N - 1) number at most BUDGET.  Each line holds the
case, then the sha256 of the table's JSON, or ``refused`` where
``betti_table`` raises ``NotASubspace``, then the sha256 of the JSON
stdout of three subcommands on the same digraph: ``omega=`` of
``omega --show-basis --max-dim 3``, so the Omega bases are compared
too, ``classify=`` of ``classify`` and ``cycles=`` of ``cycles``, so the
classification and the degree-1 generators are.  Each command runs in
process through ``mayerpath.cli.main`` on the digraph written to a
temporary JSON digraph file, which keeps isolated vertices; a nonzero
exit code is printed in place of the digest.  The library is imported
from the checkout's ``src/``, so two checkouts compare with ``diff``:

    python3 scripts/betti_sweep.py > after.txt
    python3 scripts/betti_sweep.py --root ../parent > before.txt
    diff before.txt after.txt

A tally of tables and refusals goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

MAX_DIM = 3
COUNT = 340
BUDGET = 4000


def case(i: int, Digraph, path_complex_from_digraph):
    """(digraph, N) of case i."""
    rng = random.Random(i)
    antiparallel = i % 2 == 1
    N = 2 + (i // 2) % 4
    while True:
        n = rng.randint(3, 11)
        density = rng.uniform(0.1, 0.4)
        edges, present = [], set()
        for u in range(n):
            for v in range(n):
                if u != v and (antiparallel or (v, u) not in present) \
                        and rng.random() < density:
                    edges.append((u, v))
                    present.add((u, v))
        g = Digraph(tuple(str(k + 1) for k in range(n)), tuple(edges))
        P = path_complex_from_digraph(g, MAX_DIM)
        if sum(len(P.paths(d)) for d in range(MAX_DIM + N)) <= BUDGET:
            return g, N


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_digest(cli_main, argv: list[str]) -> str:
    """sha256 of the stdout of a CLI command, or its exit code where it fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv + ["--format", "json"])
    return sha256(out.getvalue()) if code == 0 else f"exit-{code}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to sweep (default: the one holding this script)")
    args = parser.parse_args()
    src = args.root.resolve() / "src"
    sys.path.insert(0, str(src))
    import mayerpath
    from mayerpath.cli import main as cli_main
    from mayerpath.complexes import Digraph, path_complex_from_digraph
    from mayerpath.homology import betti_table
    from mayerpath.linalg import NotASubspace

    if Path(mayerpath.__file__).resolve().parent != src / "mayerpath":
        raise SystemExit(f"error: imported mayerpath from {mayerpath.__file__}")
    refused = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        for i in range(COUNT):
            g, N = case(i, Digraph, path_complex_from_digraph)
            try:
                table = betti_table(path_complex_from_digraph(g, MAX_DIM), N, MAX_DIM)
                result = sha256(json.dumps(table.to_json_dict(), sort_keys=True))
            except NotASubspace:
                result = "refused"
                refused += 1
            path.write_text(json.dumps(g.to_json()), encoding="utf-8")
            common = ["--input", str(path), "--N", str(N)]
            digests = " ".join(
                f"{name}={cli_digest(cli_main, [name, *common, *extra])}"
                for name, extra in (("omega", ["--show-basis", "--max-dim", str(MAX_DIM)]),
                                    ("classify", []), ("cycles", [])))
            print(f"{i} vertices={g.n} edges={len(g.edges)} N={N} {result} {digests}",
                  flush=True)
    print(f"{COUNT} cases; {COUNT - refused} tables, {refused} refused",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
