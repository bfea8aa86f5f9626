import os
import random
import weakref
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import pytest

import mayerpath
from mayerpath import linalg
from mayerpath.complexes import Digraph, path_complex_from_digraph
from mayerpath.cycles import Step, UndirectedCycle
from mayerpath.cyclotomic import Scalar
from mayerpath.fixtures import load_digraph, load_fixture


@pytest.fixture(scope="session")
def diamond():
    return load_fixture("diamond")


@pytest.fixture(scope="session")
def diamond_graph():
    return load_digraph("diamond")


@pytest.fixture(scope="session")
def torus():
    return load_fixture("torus_minimal")


def library_env() -> dict:
    """Environment in which a child interpreter imports this same mayerpath."""
    src = str(Path(mayerpath.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src}


def random_digraph(rng: random.Random, n_min=3, n_max=6, p=0.35,
                   allow_antiparallel=False) -> Digraph:
    """Seeded random simple digraph, optionally free of 2-cycles."""
    n = rng.randint(n_min, n_max)
    labels = tuple(str(i + 1) for i in range(n))
    edges = []
    present = set()
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if not allow_antiparallel and (v, u) in present:
                continue
            if rng.random() < p:
                edges.append((u, v))
                present.add((u, v))
    return Digraph(labels, tuple(edges))


def cycle_through(verts, edge_set) -> UndirectedCycle:
    """The cycle visiting verts in order and back to the first, each step along an edge of edge_set."""
    steps = []
    for u, v in zip(verts, verts[1:] + verts[:1]):
        if (u, v) in edge_set:
            steps.append(Step(u, v, (u, v), True))
        elif (v, u) in edge_set:
            steps.append(Step(u, v, (v, u), False))
        else:
            raise ValueError(f"no digraph edge between {u} and {v}")
    return UndirectedCycle(tuple(steps))


def bounded_random_complex(rng, N, max_dim, budget=400, **kw):
    """Random digraph complex whose relevant dimensions stay desk-sized.

    Resamples (deterministically, from the same stream) until the path
    counts the Betti pipeline will touch stay below ``budget``.
    """
    while True:
        g = random_digraph(rng, **kw)
        P = path_complex_from_digraph(g, max_dim)
        needed = max_dim + N - 1
        if sum(len(P.paths(n)) for n in range(needed + 1)) <= budget:
            return g, P


def antiparallel_complexes(rng, count, max_dim, budget):
    """Seeded digraph complexes with an antiparallel pair and at most budget paths up to max_dim."""
    made = 0
    while made < count:
        g = random_digraph(rng, 3, 6, allow_antiparallel=True)
        if not any((v, u) in g.edge_set for u, v in g.edges):
            u, v = rng.sample(range(g.n), 2)
            g = Digraph(g.labels, tuple(sorted(set(g.edges) | {(u, v), (v, u)})))
        P = path_complex_from_digraph(g, max_dim)
        if sum(len(P.paths(n)) for n in range(max_dim + 1)) > budget:
            continue
        made += 1
        yield g, P


@lru_cache(maxsize=None)
def least_modulus(N, index):
    """``linalg._modulus`` from the least prime = 1 (mod N) on: 3, 7, 5, 11, 7 for N = 2..6."""
    floor = 1 if index == 0 else least_modulus(N, index - 1)[0]
    return linalg._prime_root(N, floor)


def regular_boundary(chain, N):
    """One regular boundary step on {path: coefficient} chains over any regular paths."""
    out = {}
    for p, c in chain.items():
        for j in range(len(p) if len(p) > 1 else 0):
            f = p[:j] + p[j + 1:]
            if all(a != b for a, b in zip(f, f[1:])):
                term = c.times_unit(j)
                out[f] = term if f not in out else out[f] + term
    return {f: v for f, v in out.items() if v}


@dataclass
class BoundaryReference:
    """Reference matrix of the q-th regular boundary power on the allowed n-path basis.

    Columns follow the lexicographic allowed basis in dimension n.  Rows
    cover dimension n-q: first every allowed (n-q)-path, then the
    non-allowed regular paths reached, both lexicographically.  Each
    column is q ``regular_boundary`` steps of its path in Q(zeta_N), so
    the reference shares no code with the engine's boundary.
    """

    n: int
    q: int
    order: int
    col_paths: tuple
    row_paths: tuple
    allowed_rows: int
    entries: dict

    def nonallowed_block(self) -> linalg.Matrix:
        entries = {(r - self.allowed_rows, c): v for (r, c), v in self.entries.items()
                   if r >= self.allowed_rows}
        return linalg.Matrix(len(self.row_paths) - self.allowed_rows, len(self.col_paths),
                             self.order, entries)


_power_chains: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _powers(P, n, q, N) -> list:
    """q ``regular_boundary`` steps of each allowed n-path, made once per (P, n, q, N)."""
    made = _power_chains.setdefault(P, {})
    key = (n, q, N)
    if key not in made:
        made[key] = ([{p: Scalar.one(N)} for p in P.paths(n)] if q == 0 else
                     [regular_boundary(chain, N) for chain in _powers(P, n, q - 1, N)])
    return made[key]


def boundary_reference(P, n, q, N) -> BoundaryReference:
    """The ``BoundaryReference`` of d^q on the allowed n-paths of P."""
    images = _powers(P, n, q, N)
    allowed = P.paths(n - q)
    extras = sorted({f for chain in images for f in chain}.difference(allowed))
    row_paths = tuple(allowed) + tuple(extras)
    index = {f: r for r, f in enumerate(row_paths)}
    entries = {(index[f], c): v for c, chain in enumerate(images) for f, v in chain.items()}
    return BoundaryReference(n, q, N, P.paths(n), row_paths, len(allowed), entries)
