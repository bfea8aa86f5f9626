#!/usr/bin/env python3
"""Randomized structural sweep over small digraphs.

For each sampled digraph the sweep checks the chain-complex invariants,
compares the sparse engine against the dense oracle, classifies the
dimension-3 clusters, and exercises the degree-1 kernel generators.
Useful for hunting counterexamples with bigger budgets than the tests.
A failed check prints the digraph and the failed checks to stderr and
exits 2; the checks are explicit, so they also run under ``python -O``.
The library is imported from the checkout's ``src/``, so the sweep runs
from an uninstalled checkout:

    python3 scripts/random_sweep.py --order 4 --count 30
"""

import argparse
import collections
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mayerpath.complexes import Digraph, path_complex_from_digraph
from mayerpath.cycles import z1_generators
from mayerpath.homology import betti_table, brute_force_oracle
from mayerpath.omega import omega_nilpotency, verify_chain_closure
from mayerpath.structure import minimal_clusters, omega2_decompose, omega3_intersection_check


def random_digraph(rng, n_min, n_max, p, allow_antiparallel):
    n = rng.randint(n_min, n_max)
    edges, present = [], set()
    for u in range(n):
        for v in range(n):
            if u == v or (not allow_antiparallel and (v, u) in present):
                continue
            if rng.random() < p:
                edges.append((u, v))
                present.add((u, v))
    return Digraph(tuple(str(i + 1) for i in range(n)), tuple(edges))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--order", type=int, default=3, help="nilpotency order N")
    parser.add_argument("--max-dim", type=int, default=3)
    parser.add_argument("--vertices", type=int, default=6)
    parser.add_argument("--density", type=float, default=0.33)
    parser.add_argument("--budget", type=int, default=300,
                        help="skip graphs whose path counts exceed this")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    N = args.order
    families = collections.Counter()
    shortfalls = 0
    start = time.time()
    done = skipped = 0
    while done < args.count:
        g = random_digraph(rng, 3, args.vertices, args.density, allow_antiparallel=False)
        P = path_complex_from_digraph(g, args.max_dim)
        needed = args.max_dim + N - 1
        if sum(len(P.paths(n)) for n in range(needed + 1)) > args.budget:
            skipped += 1
            continue
        done += 1

        failed = []
        if not omega_nilpotency(P, N, args.max_dim):
            failed.append("d^N vanishes on the invariant complex")
        failed += [f"chain closure in dimension {n}" for n in range(1, args.max_dim + 1)
                   if not verify_chain_closure(P, N, n)]
        if betti_table(P, N, args.max_dim) != brute_force_oracle(P, N, args.max_dim):
            failed.append("Betti table equals the dense oracle")
        omega2_decompose(P, N)
        if not omega3_intersection_check(P, N):
            failed.append("Omega_3 is cut out by levels 1 and 2")
        if failed:
            edges = " ".join(f"{g.labels[u]}->{g.labels[v]}" for u, v in g.edges)
            print(f"invariant violation at N={N} on the digraph with vertices "
                  f"{' '.join(g.labels)} and edges {edges}: failed: " + "; ".join(failed),
                  file=sys.stderr)
            return 2
        for cluster in minimal_clusters(P, N, circuit_bound=6).clusters:
            families[cluster.family or "unclassified"] += 1

        res = z1_generators(g, N)
        if res.shortfall:
            shortfalls += 1

    elapsed = time.time() - start
    print(f"checked {done} digraphs (skipped {skipped} oversized) at N={N} "
          f"in {elapsed:.1f}s")
    print("cluster families:", dict(sorted(families.items())))
    print(f"degree-1 sweeps needing completion vectors: {shortfalls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
