"""Seeded corpora for the four benchmark workloads.

Everything here is a pure function of the workload seed: digraphs come
from ``random.Random`` streams, and a candidate digraph is accepted or
rejected on its path counts alone (number of directed walks per length,
counted here without calling the library), never on a measured time.
The program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# CLI inputs are named relative to ROOT, so a corpus digest does not depend
# on where the checkout lives.
FIXTURE_DIR = "src/mayerpath/fixtures/data"
DATA_DIR = "perfbench/data"

RECORDED_SEEDS = tuple(range(11))   # the seeds whose answers expected.json stores

DIGRAPH_FIXTURES = ("diamond", "ffl", "ffl_branch", "loop4", "biparallel", "bifan",
                    "braid", "trapezohedron_m2", "theta", "dumbbell")
SIMPLICIAL_FIXTURES = ("torus_minimal",)
CLI_COMMANDS = (("betti",), ("omega", "--show-basis"), ("classify",), ("cycles",), ("check",))
# Digraphs with an antiparallel pair: order 3 must stop with exit 2, order 2 succeeds.
ANTIPARALLEL = ("antiparallel_pair", "antiparallel_tail")


@dataclass(frozen=True)
class Case:
    """One input of one workload, with everything needed to run it."""

    id: str
    N: int
    vertices: int = 0
    edges: tuple[tuple[int, int], ...] = ()
    max_dim: int = 3
    argv: tuple[str, ...] = ()          # CLI cases only
    expect_exit: int = 0                # CLI cases only
    paths: int = 0                      # path count that admitted the case

    def to_json(self) -> dict:
        out = {"id": self.id, "N": self.N}
        if self.argv:
            out.update(argv=list(self.argv), expect_exit=self.expect_exit)
        else:
            out.update(vertices=self.vertices, edges=[list(e) for e in self.edges],
                       max_dim=self.max_dim, paths=self.paths)
        return out


@dataclass
class Corpus:
    seed: int
    cases: list[Case] = field(default_factory=list)

    def digest(self) -> str:
        blob = json.dumps([c.to_json() for c in self.cases], sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def random_digraph(rng: random.Random, n_min: int, n_max: int, p: float,
                   ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Simple digraph on n_min..n_max vertices with no antiparallel pair."""
    n = rng.randint(n_min, n_max)
    edges: list[tuple[int, int]] = []
    present: set[tuple[int, int]] = set()
    for u in range(n):
        for v in range(n):
            if u == v or (v, u) in present:
                continue
            if rng.random() < p:
                edges.append((u, v))
                present.add((u, v))
    return n, tuple(edges)


def walk_counts(n: int, edges, top: int) -> list[int]:
    """Allowed k-path counts for k = 0..top: the directed walks with k edges."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        succ[u].append(v)
    ends = [1] * n
    counts = [n]
    for _ in range(top):
        nxt = [0] * n
        for u in range(n):
            for v in succ[u]:
                nxt[v] += ends[u]
        ends = nxt
        counts.append(sum(ends))
    return counts


def _banded_cases(rng: random.Random, bands, count: int, n_min: int, n_max: int,
                  p: float, max_dim_of, deep: bool) -> list[Case]:
    """Cycle N through the band keys; resample until the path count sits in the band.

    With ``deep`` the path count covers dimensions 0 .. max_dim + N - 1,
    every dimension a Betti computation touches; otherwise 0 .. max_dim.
    """
    orders = sorted(bands)
    cases = []
    for i in range(count):
        N = orders[i % len(orders)]
        lo, hi = bands[N]
        max_dim = max_dim_of(N)
        top = max_dim + N - 1 if deep else max_dim
        while True:
            n, edges = random_digraph(rng, n_min, n_max, p)
            total = sum(walk_counts(n, edges, top))
            if lo <= total <= hi:
                break
        cases.append(Case(f"{i:03d}-N{N}", N, n, edges, max_dim, paths=total))
    return cases


# Per-N path-count bands keep the cost of every case within a narrow range,
# so the corpus time moves little from seed to seed.
BETTI_BANDS = {2: (100, 120), 3: (62, 72), 4: (48, 54), 5: (38, 42)}
BETTI_CASES = 48
SWEEP_BANDS = {2: (50, 70), 3: (28, 38), 4: (28, 36)}
SWEEP_MAX_DIM = {2: 3, 3: 3, 4: 2}
SWEEP_CASES = 144
CLASSIFY_BANDS = {2: (130, 170), 3: (110, 140), 4: (100, 130), 5: (90, 120)}
CLASSIFY_CASES = 160


def betti_random(seed: int) -> Corpus:
    rng = random.Random(f"betti-random:{seed}")
    cases = _banded_cases(rng, BETTI_BANDS, BETTI_CASES, 7, 11, 0.3,
                          lambda N: 3, deep=True)
    return Corpus(seed, cases)


def sweep_small(seed: int) -> Corpus:
    rng = random.Random(f"sweep-small:{seed}")
    cases = _banded_cases(rng, SWEEP_BANDS, SWEEP_CASES, 3, 6, 0.33,
                          SWEEP_MAX_DIM.__getitem__, deep=True)
    return Corpus(seed, cases)


def classify_random(seed: int) -> Corpus:
    """The classification calls touch dimensions 0..3 only."""
    rng = random.Random(f"classify-random:{seed}")
    cases = _banded_cases(rng, CLASSIFY_BANDS, CLASSIFY_CASES, 8, 10, 0.3,
                          lambda N: 3, deep=False)
    return Corpus(seed, cases)


def _input_args(name: str) -> tuple[str, ...]:
    if name in SIMPLICIAL_FIXTURES:
        return ("--input", f"{FIXTURE_DIR}/{name}.simplices", "--kind", "simplicial")
    if name in ANTIPARALLEL:
        return ("--input", f"{DATA_DIR}/{name}.edges")
    return ("--input", f"{FIXTURE_DIR}/{name}.edges")


def cli_fixtures(seed: int) -> Corpus:
    """Every subcommand on every bundled fixture at N = 2..5, in a seeded order.

    The cases themselves do not depend on the seed, so their expected
    outputs hold for every seed.
    """
    cases = []
    for name in DIGRAPH_FIXTURES + SIMPLICIAL_FIXTURES:
        for N in (2, 3, 4, 5):
            for cmd in CLI_COMMANDS:
                # classification and cycles reject simplicial input with exit 1
                bad = name in SIMPLICIAL_FIXTURES and cmd[0] in ("classify", "cycles")
                argv = cmd + _input_args(name) + ("--N", str(N))
                cases.append(Case(f"{cmd[0]}:{name}:N{N}", N, argv=argv,
                                  expect_exit=1 if bad else 0))
    for name in ANTIPARALLEL:
        for N, code in ((2, 0), (3, 2)):
            cases.append(Case(f"betti:{name}:N{N}", N,
                              argv=("betti",) + _input_args(name) + ("--N", str(N)),
                              expect_exit=code))
    cases.append(Case("report", 0, argv=("report",)))
    random.Random(f"cli-fixtures:{seed}").shuffle(cases)
    return Corpus(seed, cases)


GENERATORS = {
    "betti-random": betti_random,
    "sweep-small": sweep_small,
    "cli-fixtures": cli_fixtures,
    "classify-random": classify_random,
}


def make_corpus(workload: str, seed: int) -> Corpus:
    return GENERATORS[workload](seed)
