import os
import random
from functools import lru_cache
from pathlib import Path

import pytest

import mayerpath
from mayerpath import linalg
from mayerpath.complexes import Digraph, path_complex_from_digraph
from mayerpath.cycles import Step, UndirectedCycle
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
