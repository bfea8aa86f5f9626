#!/usr/bin/env python3
"""Identity sweep of ``betti_table``: one line per seeded digraph.

Case i draws from ``random.Random(i)`` a digraph on 3-11 vertices, with
antiparallel pairs allowed in every odd case, at N = 2 + (i // 2) % 4,
and redraws until the paths of the dimensions the table reads
(0 .. max_dim + N - 1) number at most BUDGET.  Each line holds the
case, then the sha256 of the table's JSON, or ``refused`` where
``betti_table`` raises ``NotASubspace``, then ``oracle=``, the same for
the table of the dense ``brute_force_oracle`` (``refused`` where it
raises ``ImageEscapesAllowed``) on cases with at most ORACLE_BUDGET
paths in those dimensions and ``-`` on the others, then the sha256 of
the JSON stdout of three subcommands on the same digraph: ``omega=`` of
``omega --show-basis --max-dim 3``, so the Omega bases are compared
too, ``classify=`` of ``classify`` and ``cycles=`` of ``cycles``, so the
classification and the degree-1 generators are.  Each command runs in
process through ``mayerpath.cli.main`` on the digraph written to a
temporary JSON digraph file, which keeps isolated vertices; a nonzero
exit code is printed in place of the digest.  The library is imported
from the checkout's ``src/``, so two checkouts compare with ``diff``,
the engine and the oracle alike:

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
ORACLE_BUDGET = 300


def path_count(P, N: int) -> int:
    """Paths in the dimensions a table reads, 0 .. MAX_DIM + N - 1."""
    return sum(len(P.paths(d)) for d in range(MAX_DIM + N))


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
        if path_count(P, N) <= BUDGET:
            return g, N


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_digest(engine, P, N: int, refusal) -> str:
    """sha256 of the JSON of ``engine(P, N, MAX_DIM)``, or ``refused`` where it raises refusal."""
    try:
        return sha256(json.dumps(engine(P, N, MAX_DIM).to_json_dict(), sort_keys=True))
    except refusal:
        return "refused"


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
    from mayerpath.homology import ImageEscapesAllowed, betti_table, brute_force_oracle
    from mayerpath.linalg import NotASubspace

    if Path(mayerpath.__file__).resolve().parent != src / "mayerpath":
        raise SystemExit(f"error: imported mayerpath from {mayerpath.__file__}")
    refused = oracle_cases = oracle_refused = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        for i in range(COUNT):
            g, N = case(i, Digraph, path_complex_from_digraph)
            P = path_complex_from_digraph(g, MAX_DIM)
            result = table_digest(betti_table, P, N, NotASubspace)
            refused += result == "refused"
            oracle = "-"
            if path_count(P, N) <= ORACLE_BUDGET:
                oracle = table_digest(brute_force_oracle, P, N, ImageEscapesAllowed)
                oracle_cases += 1
                oracle_refused += oracle == "refused"
            path.write_text(json.dumps(g.to_json()), encoding="utf-8")
            common = ["--input", str(path), "--N", str(N)]
            digests = " ".join(
                f"{name}={cli_digest(cli_main, [name, *common, *extra])}"
                for name, extra in (("omega", ["--show-basis", "--max-dim", str(MAX_DIM)]),
                                    ("classify", []), ("cycles", [])))
            print(f"{i} vertices={g.n} edges={len(g.edges)} N={N} {result} "
                  f"oracle={oracle} {digests}", flush=True)
    print(f"{COUNT} cases; {COUNT - refused} tables, {refused} refused; oracle on "
          f"{oracle_cases} cases, {oracle_refused} refused", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
