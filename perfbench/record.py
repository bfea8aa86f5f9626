#!/usr/bin/env python3
"""Record the expected answers of every workload into ``expected.json``.

    python3 perfbench/record.py

Runs each case of the corpora of seeds 0-10 once and stores its answer
digest.  Before a digest is stored, its answer is cross-checked: the
Betti tables of ``betti-random`` against ``brute_force_oracle``, the
``sweep-small`` pipeline through its own oracle comparison and the
classification checks, ``classify-random`` through the classification
checks, and each ``cli-fixtures`` case through its expected exit code
and, for ``betti``, byte for byte against the oracle's rendered table.
The ``cli-fixtures`` answers do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import cases  # noqa: E402
import corpus  # noqa: E402
from mayerpath.complexes import (  # noqa: E402
    parse_digraph, parse_simplices, path_complex_from_digraph, path_complex_from_simplicial,
)
from mayerpath.homology import brute_force_oracle  # noqa: E402


def oracle_betti_output(case) -> bytes:
    """What ``mayerpath betti`` must print for this case, from the dense oracle."""
    argv = list(case.argv)
    text = (corpus.ROOT / argv[argv.index("--input") + 1]).read_text(encoding="utf-8")
    if "simplicial" in argv:
        P = path_complex_from_simplicial(parse_simplices(text))
    else:
        P = path_complex_from_digraph(parse_digraph(text), 3)
    return (brute_force_oracle(P, case.N, 3).render_markdown() + "\n").encode()


def record_seed(workload: str, seed: int) -> dict:
    c = corpus.make_corpus(workload, seed)
    answers = {}
    for case in c.cases:
        answer = cases.RUNNERS[workload](case)
        if not cases.independent_check(workload, case, answer):
            raise SystemExit(f"{workload} seed {seed} {case.id}: answer fails its cross-check")
        if workload == "cli-fixtures" and case.argv[0] == "betti" and answer["exit"] == 0:
            if hashlib.sha256(oracle_betti_output(case)).hexdigest() != answer["stdout"]:
                raise SystemExit(f"{case.id}: output differs from the oracle's table")
        answers[case.id] = cases.digest(answer)
    print(f"{workload} seed {seed}: {len(answers)} answers", flush=True)
    return {"corpus": c.digest(), "answers": answers}


def record(workload: str) -> dict:
    if workload == "cli-fixtures":
        return {"seed_independent": True, "answers": record_seed(workload, 0)["answers"]}
    return {"seeds": {str(seed): record_seed(workload, seed) for seed in corpus.RECORDED_SEEDS}}


def main() -> int:
    expected = {w: record(w) for w in corpus.GENERATORS}
    path = BENCH / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
