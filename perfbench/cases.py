"""What each workload does with one case, and how its answer is checked.

Each runner takes a :class:`corpus.Case`, builds a fresh ``PathComplex``
(so no engine memo carries over between cases), makes the workload's
calls through the library's public API or ``mayerpath.cli.main``, and
returns a JSON-able answer.  The library functions are called through
the names imported here, and ``mayerpath.cli.main`` through its module;
that is where the traced run wraps them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction

from mayerpath import cli
from mayerpath.complexes import Digraph, path_complex_from_digraph
from mayerpath.cycles import z1_generators
from mayerpath.cyclotomic import Scalar, zeta_power
from mayerpath.homology import betti_table, brute_force_oracle
from mayerpath.omega import omega_nilpotency, verify_chain_closure
from mayerpath.structure import minimal_clusters, omega2_decompose, special_edges

from corpus import ROOT, SWEEP_MAX_DIM, Case

DIAMOND = ((0, 1), (0, 2), (1, 3), (2, 3))
CLASSIFY_CIRCUIT_BOUND = 8
SWEEP_CIRCUIT_BOUND = 6
SWEEP_CLUSTER_PATHS = 40     # sweep-small searches clusters only up to this many 3-paths


def digest(answer) -> str:
    blob = json.dumps(answer, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def digraph(case: Case) -> Digraph:
    return Digraph(tuple(str(i + 1) for i in range(case.vertices)), case.edges)


def _table(t) -> dict:
    return {"betti": [[n, q, d] for (n, q), d in sorted(t.entries.items())],
            "omega": [t.omega_dims[n] for n in sorted(t.omega_dims)]}


def _classification(gens, clusters, truncated, circuit_bound, edges, z1) -> dict:
    """A classification answer; ``circuit_bound`` 0 means no cluster search ran,
    and ``edges`` None that ``special_edges`` was not called."""
    return {
        "omega2": [[g.kind, [list(p) for p in g.paths]] for g in gens],
        "clusters": [
            {"endpoints": list(c.endpoints), "labels": list(c.labels),
             "family": c.family, "chain": c.chain,
             "components": [[list(p), v.to_json()] for p, v in c.components]}
            for c in clusters
        ],
        "truncated": [list(pair) for pair in truncated],
        "circuit_bound": circuit_bound,
        "special": None if edges is None else {k: [list(e) for e in v]
                                               for k, v in edges.items()},
        "z1": {"kernel_dim": z1.kernel_dim, "shortfall": z1.shortfall,
               "generators": [[gen.kind, sorted([list(e), c.to_json()]
                                                for e, c in gen.chain.items())]
                              for gen in z1.generators]},
    }


# -- runners ----------------------------------------------------------------


def run_betti(case: Case) -> dict:
    P = path_complex_from_digraph(digraph(case), 3)
    return _table(betti_table(P, case.N, 3))


def run_sweep(case: Case) -> dict:
    """The criterion-6 pipeline: checks, both engines, classification, kernel."""
    g, N, d = digraph(case), case.N, case.max_dim
    P = path_complex_from_digraph(g, d)
    nilpotent = omega_nilpotency(P, N, d)
    closure = all([verify_chain_closure(P, N, n) for n in range(1, d + 1)])
    table = betti_table(P, N, d)
    oracle = brute_force_oracle(P, N, d)
    gens = omega2_decompose(P, N)
    clusters, truncated, bound = [], [], 0
    if len(P.paths(3)) <= SWEEP_CLUSTER_PATHS:
        bound = SWEEP_CIRCUIT_BOUND
        search = minimal_clusters(P, N, circuit_bound=bound)
        clusters, truncated = search.clusters, search.truncated
    z1 = z1_generators(g, N)
    return {"nilpotent": nilpotent, "closure": closure, "agree": table == oracle,
            **_table(table), **_classification(gens, clusters, truncated, bound, None, z1)}


def run_classify(case: Case) -> dict:
    g, N = digraph(case), case.N
    P = path_complex_from_digraph(g, 3)
    gens = omega2_decompose(P, N)
    search = minimal_clusters(P, N, circuit_bound=CLASSIFY_CIRCUIT_BOUND)
    edges = special_edges(P)
    z1 = z1_generators(g, N)
    return _classification(gens, search.clusters, search.truncated, CLASSIFY_CIRCUIT_BOUND,
                           edges, z1)


def run_cli(case: Case) -> dict:
    argv = list(case.argv)
    if "--input" in argv:
        i = argv.index("--input") + 1
        argv[i] = str(ROOT / argv[i])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    data = out.getvalue().encode()
    return {"exit": code, "bytes": len(data), "stdout": hashlib.sha256(data).hexdigest()}


RUNNERS = {
    "betti-random": run_betti,
    "sweep-small": run_sweep,
    "cli-fixtures": run_cli,
    "classify-random": run_classify,
}


def warm_case(workload: str, N: int) -> Case:
    """A small fixed input at order N, run once before timing starts."""
    if workload == "cli-fixtures":
        return Case(f"warm-N{N}", N, argv=("betti", "--input",
                                           "src/mayerpath/fixtures/data/diamond.edges",
                                           "--N", str(N)))
    max_dim = SWEEP_MAX_DIM[N] if workload == "sweep-small" else 3
    return Case(f"warm-N{N}", N, 4, DIAMOND, max_dim)


# -- checks that do not rely on stored digests ------------------------------


def _scalar(N: int, coeffs) -> Scalar:
    return Scalar(N, tuple(Fraction(c) for c in coeffs))


def _rank(rows: list[list[Scalar]]) -> int:
    """Rank of a matrix over Q(zeta_N) by plain Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _non_allowed_faces(case: Case, path) -> list:
    """(face, j) for the regular faces of ``path`` that are not allowed."""
    edges = set(case.edges)
    out = []
    for j in range(len(path)):
        face = path[:j] + path[j + 1:]
        regular = all(face[t] != face[t + 1] for t in range(len(face) - 1))
        if regular and not all((face[t], face[t + 1]) in edges for t in range(len(face) - 1)):
            out.append((face, j))
    return out


def _chain_is_invariant(case: Case, chain: dict) -> bool:
    """Does the weighted boundary of a 3-chain stay on allowed 2-paths?"""
    image: dict = {}
    for path, coeff in chain.items():
        for face, j in _non_allowed_faces(case, path):
            image[face] = image.get(face, Scalar.zero(case.N)) + coeff * zeta_power(case.N, j)
    return not any(image.values())


def _invariant_dims(case: Case) -> dict:
    """Endpoint pair -> (number of 3-paths, dim of the invariant 3-chains on them)."""
    succ: dict[int, list[int]] = {}
    for u, v in case.edges:
        succ.setdefault(u, []).append(v)
    by_pair: dict = {}
    for a, b in case.edges:
        for c in succ.get(b, ()):
            for d in succ.get(c, ()):
                by_pair.setdefault((a, d), []).append((a, b, c, d))
    zero = Scalar.zero(case.N)
    out = {}
    for pair, paths in by_pair.items():
        rows: dict = {}
        for col, path in enumerate(paths):
            for face, j in _non_allowed_faces(case, path):
                row = rows.setdefault(face, [zero] * len(paths))
                row[col] = row[col] + zeta_power(case.N, j)
        out[pair] = (len(paths), len(paths) - _rank(list(rows.values())))
    return out


def _edge_vectors(case: Case, chains) -> list[list[Scalar]]:
    index = {e: i for i, e in enumerate(case.edges)}
    vectors = []
    for chain in chains:
        vec = [Scalar.zero(case.N)] * len(index)
        for e, c in chain.items():
            vec[index[e]] = c
        vectors.append(vec)
    return vectors


def _edge_chain_is_cycle(case: Case, chain: dict) -> bool:
    """Is the weighted edge boundary e_uv -> e_v + zeta e_u zero on the chain?"""
    zeta = zeta_power(case.N, 1)
    total: dict = {}
    for (u, v), c in chain.items():
        total[v] = total.get(v, Scalar.zero(case.N)) + c
        total[u] = total.get(u, Scalar.zero(case.N)) + c * zeta
    return not any(total.values())


def _special_edges(case: Case) -> dict:
    middles: dict = {}
    edges = set(case.edges)
    for i, j in case.edges:
        for j2, k in case.edges:
            if j2 == j and i != k and (i, k) not in edges:
                middles.setdefault((i, k), set()).add(j)
    return {"connecting": sorted([list(p) for p, m in middles.items() if len(m) >= 2]),
            "complementary": sorted([list(p) for p, m in middles.items() if len(m) == 1])}


def check_classification(case: Case, answer: dict) -> bool:
    """Check a classification against the definitions, not the library's linear algebra.

    - Omega_2 at level 1 is cut out by one constraint per non-adjacent
      endpoint pair joined by 2-paths (the coefficients over its middles
      sum to zero), so it has one generator per 2-path minus one per such
      pair.
    - Special edges are those pairs, split by their number of middles.
    - Each cluster is a nonzero invariant 3-chain on the 3-paths of its
      endpoint pair.  Where the search was exhaustive (no more 3-paths
      than the circuit bound) the clusters of a pair span its whole
      invariant space; a pair is truncated exactly when it has more
      3-paths than the bound and a nonzero invariant space.
    - Each degree-1 generator is a cycle; together they span a space of
      dimension ``kernel_dim``, which is the number of edges minus the
      rank of the weighted edge boundary; the ``completion`` vectors,
      ``shortfall`` of them, are what the cycle and merge generators miss.
    """
    two_paths = [(i, j, k) for i, j in case.edges for j2, k in case.edges if j2 == j]
    pairs = {(i, k) for i, _, k in two_paths if i != k and (i, k) not in set(case.edges)}
    if len(answer["omega2"]) != len(two_paths) - len(pairs):
        return False
    if answer["special"] is not None and answer["special"] != _special_edges(case):
        return False

    bound = answer["circuit_bound"]
    if bound:
        dims = _invariant_dims(case)
        spans: dict = {}
        for c in answer["clusters"]:
            pair = tuple(c["endpoints"])
            chain = {tuple(p): _scalar(case.N, v) for p, v in c["components"]}
            if (pair not in dims or any((p[0], p[-1]) != pair for p in chain)
                    or not all(chain.values()) or not _chain_is_invariant(case, chain)):
                return False
            spans.setdefault(pair, []).append(chain)
        truncated = sorted(list(p) for p, (n, dim) in dims.items() if n > bound and dim)
        if sorted(answer["truncated"]) != truncated:
            return False
        for pair, (n, dim) in dims.items():
            paths = sorted({p for chain in spans.get(pair, ()) for p in chain})
            vectors = [[chain.get(p, Scalar.zero(case.N)) for p in paths]
                       for chain in spans.get(pair, ())]
            found = _rank(vectors)
            if found > dim or (n <= bound and found != dim):
                return False
    elif answer["clusters"] or answer["truncated"]:
        return False

    z1 = answer["z1"]
    chains = {kind: [] for kind in ("cycle", "merge", "completion")}
    for kind, terms in z1["generators"]:
        chain = {tuple(e): _scalar(case.N, v) for e, v in terms}
        if kind not in chains or not _edge_chain_is_cycle(case, chain):
            return False
        chains[kind].append(chain)
    zeta, one = zeta_power(case.N, 1), Scalar.one(case.N)
    boundary = [[zeta if u == x else one if v == x else Scalar.zero(case.N)
                 for u, v in case.edges] for x in range(case.vertices)]
    kernel_dim = len(case.edges) - _rank(boundary)
    found = _rank(_edge_vectors(case, chains["cycle"] + chains["merge"]))
    return (z1["kernel_dim"] == kernel_dim and z1["shortfall"] == len(chains["completion"])
            and found == kernel_dim - z1["shortfall"]
            and _rank(_edge_vectors(case, [c for cs in chains.values() for c in cs]))
            == kernel_dim)


def independent_check(workload: str, case: Case, answer: dict) -> bool:
    """Correctness of one answer without stored digests."""
    if workload == "betti-random":
        P = path_complex_from_digraph(digraph(case), 3)
        return answer == _table(brute_force_oracle(P, case.N, 3))
    if workload == "sweep-small":
        return (answer["nilpotent"] and answer["closure"] and answer["agree"]
                and check_classification(case, answer))
    if workload == "classify-random":
        return check_classification(case, answer)
    return answer["exit"] == case.expect_exit
