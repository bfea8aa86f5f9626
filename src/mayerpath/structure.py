"""Classification of invariant 2- and 3-chains of a digraph path complex.

Dimension 2 decomposes into double edges, triangles and squares; in
dimension 3 every component of a minimal cluster carries one of nine
face-type patterns (g1..g9), and minimal clusters, the simple cycles of
a face graph with coefficients +-1 (``minimal_clusters``), are chains of
g7-components capped by compatible endpoint types, plus the isolated
patterns g8 and g9 and pure-g7 polygons.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .complexes import Path, PathComplex
from .cyclotomic import Scalar, zeta_power
from .linalg import Subspace
from .omega import _ordinary_rows, omega_full, omega_nq


class SpanMismatch(RuntimeError):
    """The emitted generators do not span the computed invariant space."""


class NotMayerForm(ValueError):
    """Chain is not of the single-anchor root-of-unity square-sum shape."""


class FaceType(Enum):
    T = "T"    # shortcut edge present
    S = "S"    # no shortcut, but an alternative middle exists
    W = "W"    # allowed with neither shortcut nor alternative
    NW = "Nw"  # not an allowed path

    def __str__(self) -> str:
        return self.value


GAMMA_PATTERNS: dict[int, tuple[FaceType, FaceType, FaceType, FaceType]] = {
    1: (FaceType.S, FaceType.T, FaceType.NW, FaceType.T),
    2: (FaceType.S, FaceType.S, FaceType.NW, FaceType.T),
    3: (FaceType.S, FaceType.W, FaceType.NW, FaceType.T),
    4: (FaceType.T, FaceType.NW, FaceType.T, FaceType.S),
    5: (FaceType.T, FaceType.NW, FaceType.S, FaceType.S),
    6: (FaceType.T, FaceType.NW, FaceType.W, FaceType.S),
    7: (FaceType.S, FaceType.NW, FaceType.NW, FaceType.S),
    8: (FaceType.T, FaceType.S, FaceType.S, FaceType.T),
    9: (FaceType.T, FaceType.T, FaceType.T, FaceType.T),
}
_PATTERN_TO_GAMMA = {v: k for k, v in GAMMA_PATTERNS.items()}


def face_type(P: PathComplex, f: Path) -> FaceType:
    """Classify a 2-path face by its endpoints' connectivity.

    Priority: non-allowed beats everything; then a shortcut edge (T),
    then an alternative allowed middle (S), else W.
    """
    if len(f) != 3:
        raise ValueError("face classification applies to 2-paths")
    a, mid, c = f
    if not P.is_allowed(f):
        return FaceType.NW
    if P.has_edge(a, c):
        return FaceType.T
    if any(alt != mid for alt in _middles(P).get((a, c), ())):
        return FaceType.S
    return FaceType.W


def _middles(P: PathComplex) -> dict[tuple[int, int], list[int]]:
    """The middles of the allowed 2-paths, by endpoint pair; memoised on P."""
    index = P._memo.get(("middles",))
    if index is None:
        index = P._memo[("middles",)] = {}
        for a, mid, c in P.paths(2):
            index.setdefault((a, c), []).append(mid)
    return index


def _bridged(P: PathComplex) -> dict[tuple[int, int], list[int]]:
    """The middles of the distinct non-adjacent pairs a 2-path bridges, ascending."""
    return {(a, c): mids for (a, c), mids in _middles(P).items()
            if a != c and not P.has_edge(a, c)}


def image_type(P: PathComplex, v: Path) -> tuple[FaceType, FaceType, FaceType, FaceType]:
    """Face types of (jkl, ikl, ijl, ijk) for an allowed 3-path ijkl."""
    if len(v) != 4:
        raise ValueError("image type applies to 3-paths")
    i, j, k, l = v

    def classify(face: Path) -> FaceType:
        if any(face[t] == face[t + 1] for t in range(2)):
            return FaceType.NW  # irregular faces are never allowed
        return face_type(P, face)

    return (classify((j, k, l)), classify((i, k, l)),
            classify((i, j, l)), classify((i, j, k)))


def gamma_label(P: PathComplex, v: Path) -> int | None:
    """Index 1..9 of the matching pattern, or None outside the table."""
    return _PATTERN_TO_GAMMA.get(image_type(P, v))


# -- dimension 2 -----------------------------------------------------------


@dataclass
class Omega2Generator:
    kind: str            # "double_edge" | "triangle" | "square"
    paths: tuple[Path, ...]
    vector: dict[Path, Scalar]

    def render(self, P: PathComplex) -> str:
        parts = []
        for p, c in self.vector.items():
            parts.append(f"({c.render()})*{P.path_label(p)}")
        return " + ".join(parts)


def omega2_decompose(P: PathComplex, N: int) -> list[Omega2Generator]:
    """Double-edge / triangle / square generating set of Omega_2^N.

    Squares between a non-adjacent pair are anchored at the least middle
    vertex.  The emitted span is asserted to equal the computed invariant
    space; a mismatch would disprove the classification and is fatal.
    """
    one = Scalar.one(N)
    gens: list[Omega2Generator] = []
    for p in P.paths(2):
        i, _, k = p
        if i == k:
            gens.append(Omega2Generator("double_edge", (p,), {p: one}))
        elif P.has_edge(i, k):
            gens.append(Omega2Generator("triangle", (p,), {p: one}))
    for (i, k), middles in sorted(_bridged(P).items()):
        anchor = (i, middles[0], k)
        for j in middles[1:]:
            other = (i, j, k)
            gens.append(Omega2Generator("square", (anchor, other),
                                        {anchor: one, other: -one}))

    paths = P.paths(2)
    index = {p: i for i, p in enumerate(paths)}
    vectors = [{index[p]: c for p, c in g.vector.items()} for g in gens]
    span = Subspace.from_spanning(vectors, len(paths), N)
    target = omega_full(P, 2, N).space
    if span != target:
        raise SpanMismatch(
            f"2-chain generators span dim {span.dim}, invariant space has dim {target.dim}"
        )
    return gens


def mayer_square_reduce(P: PathComplex, N: int, chain: dict[Path, Scalar]):
    """Rewrite an anchored root-of-unity sum of 2-paths as signed squares.

    Input shape: anchor path with coefficient 1 plus partners carrying
    distinct powers zeta^m (1 <= m <= N-1), all sharing both endpoints.
    Returns [(coefficient, (anchor, partner)), ...] with coefficients
    -zeta^m, whose sum reproduces the input exactly.
    """
    items = [(p, c) for p, c in chain.items() if c]
    if len(items) < 2:
        raise NotMayerForm("need at least two paths")
    endpoints = {(p[0], p[-1]) for p, _ in items}
    if len(endpoints) != 1:
        raise NotMayerForm("paths do not share endpoints")
    (i, k) = endpoints.pop()
    for p, _ in items:
        if len(p) != 3 or p[1] in (i, k):
            raise NotMayerForm("middles must be distinct from the endpoints")
        if not P.is_allowed(p):
            raise NotMayerForm(f"non-allowed component {p}")

    powers = {m: zeta_power(N, m) for m in range(1, N)}
    one = Scalar.one(N)
    for anchor, c_anchor in sorted(items):
        rest = [(p, c) for p, c in items if p != anchor]
        used: dict[Path, int] = {}
        taken: set[int] = set()
        ok = True
        for p, c in rest:
            m = next((m for m, z in powers.items() if m not in taken and z == c), None)
            if m is None:
                ok = False
                break
            used[p] = m
            taken.add(m)
        if not ok:
            continue
        unused_sum = sum((powers[m] for m in powers if m not in taken),
                         start=Scalar.zero(N))
        if c_anchor != one + unused_sum:
            continue
        return [(-powers[m], (anchor, p)) for p, m in sorted(used.items())]
    raise NotMayerForm("no anchor assignment matches the required shape")


# -- dimension 3 -----------------------------------------------------------


@dataclass
class ClusterReport:
    endpoints: tuple[int, int]
    components: tuple[tuple[Path, Scalar], ...]
    labels: tuple[int | None, ...]
    family: str | None   # "T1".."T6"
    chain: str | None    # e.g. "g2-(g7)^1-g5" for chain-shaped clusters


@dataclass
class ClusterSearch:
    clusters: list[ClusterReport]
    truncated: list[tuple[int, int]]  # endpoint pairs where the bound was hit


def _family_of(labels: tuple[int | None, ...]) -> str | None:
    s = set(labels)
    if None in s:
        return None
    if s == {9}:
        return "T5"
    if s == {8}:
        return "T6"
    if s == {7}:
        return "T4"
    if s <= {1, 4, 7}:
        return "T1"
    if s <= {2, 5, 7}:
        return "T2"
    if s <= {3, 6, 7}:
        return "T3"
    return None


def _nw_faces(P: PathComplex, v: Path) -> set[Path]:
    faces = {(v[0], v[2], v[3]), (v[0], v[1], v[3])}
    out = set()
    for f in faces:
        if any(f[t] == f[t + 1] for t in range(2)) or not P.is_allowed(f):
            out.add(f)
    return out


def _chain_shape(P: PathComplex, comps: list[Path], labels) -> str | None:
    """Render a path-shaped cluster as 'gi-(g7)^m-gj'; None if not a chain."""
    if len(comps) == 1:
        return f"g{labels[0]}" if labels[0] else None
    adj = {i: set() for i in range(len(comps))}
    for a, b in combinations(range(len(comps)), 2):
        if _nw_faces(P, comps[a]) & _nw_faces(P, comps[b]):
            adj[a].add(b)
            adj[b].add(a)
    degs = sorted(len(v) for v in adj.values())
    if degs.count(1) != 2 or any(d == 0 or d > 2 for d in degs):
        return None  # a polygon (pure g7) or something stranger
    start = min(i for i in adj if len(adj[i]) == 1)
    order = [start]
    while len(order) < len(comps):
        nxt = [x for x in adj[order[-1]] if x not in order]
        if not nxt:
            return None
        order.append(nxt[0])
    seq = [labels[i] for i in order]
    if any(l is None for l in seq):
        return None
    if seq[0] == 7 and seq[-1] != 7:
        seq.reverse()
    middle = seq[1:-1]
    if len(seq) >= 2 and all(l == 7 for l in middle):
        return f"g{seq[0]}-(g7)^{len(middle)}-g{seq[-1]}"
    return "-".join(f"g{l}" for l in seq)


_GROUND = -1  # the face-graph node of every allowed or irregular face


def _face_graphs(P: PathComplex) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    """The face graph of each endpoint pair (see ``minimal_clusters``).

    One (column, tail, head) edge per allowed 3-path, columns ascending:
    the tail is the row of its j = 2 face, the head the row of its j = 1
    face, each ``_GROUND`` where that face is allowed or irregular.
    """
    paths = P.paths(3)
    tail = [_GROUND] * len(paths)
    head = [_GROUND] * len(paths)
    for r, (j, cols) in enumerate(_ordinary_rows(P, 3)):
        ends = tail if j == 2 else head
        for c in cols:
            ends[c] = r
    graphs: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for c, p in enumerate(paths):
        graphs.setdefault((p[0], p[-1]), []).append((c, tail[c], head[c]))
    return graphs


def _is_forest(edges: list[tuple[int, int, int]]) -> bool:
    """Is the graph of the (column, tail, head) edges free of cycles?  A union-find."""
    root: dict[int, int] = {}

    def find(x: int) -> int:
        while x in root:
            x = root[x]
        return x

    for _, t, h in edges:
        a, b = find(t), find(h)
        if a == b:
            return False
        root[a] = b
    return True


def _simple_cycles(edges: list[tuple[int, int, int]], bound: int) -> list[list[tuple[int, int]]]:
    """The simple cycles of at most ``bound`` edges, each as (column, +-1) pairs in walk order.

    Each cycle is found once, from its least edge c0: run c0 from tail to
    head, then walk back to the tail along edges above c0 through nodes
    not yet on the walk.  An edge run from tail to head gets +1, one run
    against its direction -1, so c0 gets +1.  A loop is a cycle alone.
    """
    adjacent: dict[int, list[tuple[int, int, int]]] = {}
    for c, t, h in edges:
        if t != h:
            adjacent.setdefault(t, []).append((c, h, 1))
            adjacent.setdefault(h, []).append((c, t, -1))
    cycles = []
    for c0, t, h in edges:
        if t == h:
            cycles.append([(c0, 1)])
            continue
        stack = [(h, [(c0, 1)], {t, h})] if bound > 1 else []
        while stack:
            node, walk, on_walk = stack.pop()
            for c, other, sign in adjacent[node]:
                if c <= c0:
                    continue
                if other == t:
                    cycles.append(walk + [(c, sign)])
                elif other not in on_walk and len(walk) + 1 < bound:  # room to close
                    stack.append((other, walk + [(c, sign)], on_walk | {other}))
    return cycles


def minimal_clusters(P: PathComplex, N: int, circuit_bound: int = 8) -> ClusterSearch:
    """Minimal-support invariant elements of the level-(N,1) space in dim 3.

    The space is the kernel of the non-allowed rows of d^1, each a unit
    times a 0/1 row (``omega._ordinary_rows``).  A non-allowed face of a
    3-path ijkl drops an interior vertex, ikl at j = 1 or ijl at j = 2,
    and each face is reached from one position only.  So per endpoint
    pair the rows describe a face graph (``_face_graphs``): the
    non-allowed faces and one ground node, and each 3-path an edge from
    its j = 2 face to its j = 1 face, ground standing in for an allowed
    or irregular face.  Negating the j = 1 rows, which moves no kernel,
    makes the rows its incidence matrix with the ground row deleted, +1
    at the tail and -1 at the head: totally unimodular (Schrijver, Theory
    of Linear and Integer Programming, 1986), with the flows conserved
    at every node but ground as its kernel.  Its circuits, the minimal
    supports, are the simple cycles:

    * the +-1 traversal of a simple cycle (+1 on an edge run from tail
      to head, -1 against it) is conserved at every node;
    * a forest carries no nonzero flow: a tree with an edge has two
      leaves, one off ground, where conservation puts 0 on the one edge;
    * so a minimal support is a simple cycle's edge set, and its flows
      are multiples of the traversal: a second one could be combined to
      vanish on an edge, leaving a flow on a forest.

    So the clusters are the simple cycles, with coefficients +-1 set to
    +1 at the least column, and the kernel dimension is the circuit rank
    |E| - |V| + components.  A g7 component (both interior faces
    non-allowed) joins two faces and g1..g6 join a face to ground, so a
    loop is g8 or g9 alone (T6, T5), a cycle through ground is a chain
    gi-(g7)^m-gj (T1..T3) and a cycle that misses ground a pure-g7
    polygon (T4); irregular faces give cycles without a family.

    Clusters come by endpoint pair, then by (size, columns), cycles of at
    most ``circuit_bound`` edges.  A pair with more 3-paths than that
    whose face graph is not a forest may hide a longer cycle; it is
    reported in ``truncated``, never silently cut.
    """
    if circuit_bound < 1:
        raise ValueError("circuit_bound must be >= 1")
    paths = P.paths(3)
    units = {1: Scalar.one(N), -1: -Scalar.one(N)}
    clusters: list[ClusterReport] = []
    truncated: list[tuple[int, int]] = []
    for pair, edges in sorted(_face_graphs(P).items()):
        if len(edges) > circuit_bound and not _is_forest(edges):
            truncated.append(pair)
        cycles = sorted(map(sorted, _simple_cycles(edges, circuit_bound)),
                        key=lambda cycle: (len(cycle), [c for c, _ in cycle]))
        for cycle in cycles:
            comps = [paths[c] for c, _ in cycle]
            labels = tuple(gamma_label(P, p) for p in comps)
            clusters.append(ClusterReport(
                endpoints=pair,
                components=tuple((paths[c], units[sign]) for c, sign in cycle),
                labels=labels,
                family=_family_of(labels),
                chain=_chain_shape(P, comps, labels),
            ))
    return ClusterSearch(clusters, truncated)


def special_edges(P: PathComplex) -> dict[str, list[tuple[int, int]]]:
    """Non-adjacent pairs bridged by 2-paths: >= 2 middles vs exactly one."""
    middles = _bridged(P)
    connecting = sorted(pair for pair, ms in middles.items() if len(ms) >= 2)
    complementary = sorted(pair for pair, ms in middles.items() if len(ms) == 1)
    return {"connecting": connecting, "complementary": complementary}


def omega3_intersection_check(P: PathComplex, N: int) -> bool:
    """Is the full dim-3 invariant space cut out by levels q=1 and q=2 alone?

    For N >= 3, full = A cap B (A, B the levels q = 1, 2) exactly when
    every row of full lies in A and in B, so full is inside A cap B, and
    dim full = dim A + dim B - dim(A + B) = dim(A cap B).
    """
    full = omega_full(P, 3, N).space
    first = omega_nq(P, 3, 1, N).space
    if N == 2:
        return full == first
    second = omega_nq(P, 3, 2, N).space
    if not all(first.contains(x) and second.contains(x) for x in full.basis):
        return False
    both = Subspace.from_spanning(first.basis + second.basis, full.ambient_dim, N)
    return full.dim == first.dim + second.dim - both.dim
