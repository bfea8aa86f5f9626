"""Degree-1 kernel theory: weighted cycles, merges and spanning-tree bases.

An undirected cycle of the underlying multigraph supports a kernel
element of the weighted edge boundary iff its orientation profile
satisfies (-1)^n zeta^(u1-u2) = 1.  Pairs of non-admissible cycles that
share a vertex support "merge" kernel elements.  Fundamental cycles of a
spanning forest, weighted accordingly, generate the kernel; when the
construction provably cannot cover it (disjoint non-admissible cycles)
the missing directions are emitted as flagged completion vectors rather
than dropped.

The exact kernel they are compared with is solved from the closed form
of the edge boundary, e_uv -> e_v + zeta e_u, with no path complex
(``z1_kernel_space``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Digraph
from .cyclotomic import Scalar, zeta_power
from .linalg import InvariantViolation, Matrix, Subspace, nullspace

Edge = tuple[int, int]
WeightedChain = dict[Edge, Scalar]


class NotAdmissible(ValueError):
    pass


class NotApplicable(ValueError):
    pass


@dataclass(frozen=True)
class Step:
    tail: int      # vertex the traversal leaves
    head: int      # vertex the traversal enters
    edge: Edge     # backing digraph edge
    aligned: bool  # edge == (tail, head)


@dataclass(frozen=True)
class UndirectedCycle:
    """A cycle of the underlying multigraph with its digraph orientations."""

    steps: tuple[Step, ...]

    def __post_init__(self):
        n = len(self.steps)
        if n < 2:
            raise ValueError("cycles need at least two steps")
        for a, b in zip(self.steps, self.steps[1:] + (self.steps[0],)):
            if a.head != b.tail:
                raise ValueError("steps do not close up into a cycle")

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(s.tail for s in self.steps)


@dataclass(frozen=True)
class OrientationProfile:
    n: int
    u1: int  # steps traversed against the edge direction
    u2: int  # steps traversed along the edge direction


def orientation_profile(c: UndirectedCycle) -> OrientationProfile:
    u2 = sum(1 for s in c.steps if s.aligned)
    return OrientationProfile(c.length, c.length - u2, u2)


def is_admissible(c: UndirectedCycle, N: int) -> bool:
    """Does the cycle support a weighted kernel element at order N?"""
    if N < 2:
        raise ValueError("need N >= 2")
    prof = orientation_profile(c)
    diff = prof.u1 - prof.u2
    if prof.n % 2 == 0:
        return diff % N == 0
    return N % 2 == 0 and diff % N == N // 2


def _step_exponents(step: Step) -> tuple[int, int]:
    """(e, e*): x = zeta^e at the tail vertex, x* = zeta^e* at the head, x x* = zeta."""
    return (1, 0) if step.aligned else (0, 1)


def _walk_weights(steps, first: Scalar) -> list[Scalar]:
    """The weights y_j along a walk from y_0 = first: y_j = -(x*_{j-1} / x_j) * y_{j-1}.

    Each ratio is a unit, so every step is one rotation ``Scalar.times_unit``.
    """
    ys = [first]
    for prev, step in zip(steps, steps[1:]):
        ys.append(ys[-1].times_unit(_step_exponents(prev)[1] - _step_exponents(step)[0], -1))
    return ys


def _add_walk(chain: WeightedChain, steps, first: Scalar) -> None:
    """Add the walk weights from ``first`` onto the edges of the steps."""
    for s, y in zip(steps, _walk_weights(steps, first)):
        cur = chain.get(s.edge)
        val = y if cur is None else cur + y
        if val:
            chain[s.edge] = val
        else:
            chain.pop(s.edge, None)


def _chain_boundary_residual(chain: WeightedChain, n_vertices: int, N: int) -> list[Scalar]:
    zero = Scalar.zero(N)
    out = [zero] * n_vertices
    for (u, v), c in chain.items():
        out[v] = out[v] + c
        out[u] = out[u] + c.times_unit(1)
    return out


def admissible_weights(c: UndirectedCycle, N: int) -> WeightedChain:
    """Kernel element supported on an admissible cycle, first weight 1."""
    if not is_admissible(c, N):
        raise NotAdmissible("cycle orientation profile fails the congruence")
    chain: WeightedChain = {}
    _add_walk(chain, c.steps, Scalar.one(N))
    n_vertices = max(max(e) for e in chain) + 1
    if any(_chain_boundary_residual(chain, n_vertices, N)):
        raise InvariantViolation("admissible cycle weights failed to close")
    return chain


# -- merges of non-admissible cycles ---------------------------------------


def _rotate_to(c: UndirectedCycle, vertex: int) -> UndirectedCycle:
    verts = c.vertices
    i = verts.index(vertex)
    return UndirectedCycle(c.steps[i:] + c.steps[:i])


def _path_transfer(steps, N: int) -> tuple[Scalar, Scalar, Scalar]:
    """(x_first, x*_last, rho): last weight = rho * first weight along a path."""
    rho = _walk_weights(steps, Scalar.one(N))[-1]
    return (zeta_power(N, _step_exponents(steps[0])[0]),
            zeta_power(N, _step_exponents(steps[-1])[1]), rho)


def _shared_run(I: UndirectedCycle, J: UndirectedCycle) -> tuple[list[Step], ...] | None:
    """Split both cycles along a maximal common contiguous vertex run.

    Returns (P1, P2, P3): the shared path as traversed by I, the rest of
    I, and the rest of J re-oriented to run between the same junctions.
    Falls back to None when the cycles share no edge run (vertex-only
    intersections are handled by the degenerate merge).
    """
    edges_i = {s.edge for s in I.steps}
    edges_j = {s.edge for s in J.steps}
    common = edges_i & edges_j
    if not common:
        return None
    # walk I to find a maximal contiguous run of shared edges
    n = len(I.steps)
    start = None
    for i in range(n):
        if I.steps[i].edge in common and I.steps[i - 1].edge not in common:
            start = i
            break
    if start is None:  # every edge shared: cycles coincide
        return None
    run = [I.steps[start]]
    k = (start + 1) % n
    while I.steps[k].edge in common and len(run) < n - 1:
        run.append(I.steps[k])
        k = (k + 1) % n
    rest_i = [I.steps[(k + t) % n] for t in range(n - len(run))]
    # orient J's complement from the run's end back to its start
    a, b = run[0].tail, run[-1].head
    j_rot = _rotate_to(J, b) if b in J.vertices else None
    if j_rot is None or a not in J.vertices:
        return None
    rest_j = [s for s in j_rot.steps if s.edge not in common]
    if len(rest_j) != J.length - len(run):
        return None
    if rest_j and (rest_j[0].tail != b or rest_j[-1].head != a):
        # J traverses the shared run in the opposite sense; flip it
        rest_j = [Step(s.head, s.tail, s.edge, not s.aligned) for s in reversed(rest_j)]
        if rest_j[0].tail != b or rest_j[-1].head != a:
            return None
    return run, rest_i, rest_j


def merge_element(I: UndirectedCycle, J: UndirectedCycle, N: int) -> WeightedChain:
    """Kernel element supported on the union of two non-admissible cycles.

    The cycles must intersect.  Weights follow the per-path recursion;
    the junction balance equations pin down the free path weights, which
    is solvable precisely because neither cycle is admissible on its own.
    """
    if is_admissible(I, N) or is_admissible(J, N):
        raise NotApplicable("merge applies to two non-admissible cycles")
    shared_vertices = set(I.vertices) & set(J.vertices)
    if not shared_vertices:
        raise NotApplicable("cycles are vertex-disjoint")

    split = _shared_run(I, J)
    paths: list[list[Step]]
    if split is not None:
        p1, p2, p3 = split
        paths = [p1, p2, p3]
        a = p1[0].tail   # start of the shared run
        b = p1[-1].head  # end of the shared run
        transfers = [_path_transfer(p, N) for p in paths]
        (x1, x1s, r1), (x2, x2s, r2), (x3, x3s, r3) = transfers
        # balance at a: P1 starts, P2 and P3 end there
        # balance at b: P1 ends, P2 and P3 start there
        rows = [
            {0: x1, 1: x2s * r2, 2: x3s * r3},
            {0: x1s * r1, 1: x2, 2: x3},
        ]
        sol_space = nullspace(Matrix.from_row_dicts(rows, 3, N))
        if sol_space.dim == 0:
            raise NotApplicable("junction system has no nonzero solution")
        w = sol_space.basis[0]
        weights = (w.get(0), w.get(1), w.get(2))
    else:
        v = min(shared_vertices)
        p2 = list(_rotate_to(I, v).steps)
        p3 = list(_rotate_to(J, v).steps)
        paths = [[], p2, p3]
        (x2, x2s, r2) = _path_transfer(p2, N)
        (x3, x3s, r3) = _path_transfer(p3, N)
        rows = [{0: x2 + x2s * r2, 1: x3 + x3s * r3}]
        sol_space = nullspace(Matrix.from_row_dicts(rows, 2, N))
        if sol_space.dim == 0:
            raise NotApplicable("junction system has no nonzero solution")
        w = sol_space.basis[0]
        weights = (None, w.get(0), w.get(1))

    chain: WeightedChain = {}
    for path, w0 in zip(paths, weights):
        if path and w0 is not None:
            _add_walk(chain, path, w0)
    if not chain:
        raise NotApplicable("merge collapsed to the zero chain")
    n_vertices = max(max(s.edge) for p in paths for s in p) + 1
    if any(_chain_boundary_residual(chain, n_vertices, N)):
        raise InvariantViolation("merge element failed to close")
    return chain


# -- spanning-forest generation ---------------------------------------------


@dataclass
class Z1Generator:
    kind: str  # "cycle" | "merge" | "completion"
    chain: WeightedChain
    cycles: tuple[int, ...] = ()  # indices of the fundamental cycles involved


@dataclass
class Z1Result:
    generators: list[Z1Generator]
    fundamental_cycles: list[UndirectedCycle]
    admissible_flags: list[bool]
    kernel_dim: int
    shortfall: int  # kernel directions not reachable from the theorem's set

    @property
    def spanned(self) -> bool:
        return self.shortfall == 0


def _spanning_forest(g: Digraph) -> tuple[set[Edge], dict[int, list[tuple[int, Edge]]]]:
    """Deterministic BFS forest of the underlying multigraph."""
    adjacency: dict[int, list[tuple[int, Edge]]] = {v: [] for v in range(g.n)}
    for e in g.edges:
        u, v = e
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))
    for v in adjacency:
        adjacency[v].sort()
    tree: set[Edge] = set()
    seen: set[int] = set()
    parent: dict[int, tuple[int, Edge]] = {}
    for root in range(g.n):
        if root in seen:
            continue
        seen.add(root)
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w, e in adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        tree.add(e)
                        parent[w] = (u, e)
                        nxt.append(w)
            frontier = nxt
    return tree, parent


def _tree_path(parent, u: int, v: int) -> list[int] | None:
    def root_chain(x):
        chain = [x]
        while x in parent:
            x = parent[x][0]
            chain.append(x)
        return chain

    cu, cv = root_chain(u), root_chain(v)
    if cu[-1] != cv[-1]:
        return None
    set_cu = {x: i for i, x in enumerate(cu)}
    meet = next(x for x in cv if x in set_cu)
    up = cu[: set_cu[meet] + 1]
    down = cv[: cv.index(meet)]
    return up + list(reversed(down))


def fundamental_cycles(g: Digraph) -> list[UndirectedCycle]:
    """One cycle per non-tree edge of the BFS forest, in edge order.

    Antiparallel edge pairs count as parallel edges of the multigraph, so
    the second edge of such a pair yields a two-step cycle.
    """
    tree, parent = _spanning_forest(g)
    cycles = []
    for e in g.edges:
        if e in tree:
            continue
        u, v = e
        path = _tree_path(parent, v, u)  # v -> ... -> u through the tree
        if path is None:
            raise InvariantViolation("non-tree edge must connect one component")
        if len(path) == 1:
            raise InvariantViolation("self-loops are excluded upstream")
        steps = [Step(u, v, e, True)]
        for a, b in zip(path, path[1:]):
            if (a, b) in tree:
                steps.append(Step(a, b, (a, b), True))
            else:
                if (b, a) not in tree:
                    raise InvariantViolation("tree path stepped off the forest")
                steps.append(Step(a, b, (b, a), False))
        cycles.append(UndirectedCycle(tuple(steps)))
    return cycles


def z1_kernel_space(g: Digraph, N: int) -> tuple[Subspace, tuple[Edge, ...]]:
    """Exact kernel of the weighted edge boundary, with its edge basis.

    The edges come in lexicographic order, the order of the allowed
    1-paths, and d sends e_uv to e_v + zeta e_u (as in
    ``_chain_boundary_residual``): one row per vertex.
    """
    edges = tuple(sorted(g.edges))
    one, zeta = Scalar.one(N), zeta_power(N, 1)
    entries = {}
    for c, (u, v) in enumerate(edges):
        entries[(v, c)] = one
        entries[(u, c)] = zeta
    return nullspace(Matrix(g.n, len(edges), N, entries)), edges


def z1_generators(g: Digraph, N: int) -> Z1Result:
    """Spanning-tree generating set for the degree-1 kernel.

    Admissible fundamental cycles contribute weighted cycles; the
    non-admissible ones are merged along a BFS forest of their
    intersection graph.  The span is then compared against the exact
    kernel; any residual directions are appended as flagged completion
    vectors (this happens e.g. when non-admissible cycles are pairwise
    disjoint).
    """
    if N < 2:
        raise ValueError("need N >= 2")
    cycles = fundamental_cycles(g)
    flags = [is_admissible(c, N) for c in cycles]
    generators: list[Z1Generator] = []
    for i, (c, ok) in enumerate(zip(cycles, flags)):
        if ok:
            generators.append(Z1Generator("cycle", admissible_weights(c, N), (i,)))

    # merge forest over the intersection graph of non-admissible cycles
    bad = [i for i, ok in enumerate(flags) if not ok]
    bad_vertices = {i: set(cycles[i].vertices) for i in bad}
    visited: set[int] = set()
    for root in bad:
        if root in visited:
            continue
        visited.add(root)
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in bad:
                    if w in visited or not (bad_vertices[u] & bad_vertices[w]):
                        continue
                    try:
                        chain = merge_element(cycles[u], cycles[w], N)
                    except NotApplicable:
                        continue
                    visited.add(w)
                    generators.append(Z1Generator("merge", chain, (u, w)))
                    nxt.append(w)
            frontier = nxt

    kernel, edge_basis = z1_kernel_space(g, N)
    index = {e: i for i, e in enumerate(edge_basis)}
    vectors = [{index[e]: c for e, c in gen.chain.items()} for gen in generators]
    for vec in vectors:
        if not kernel.contains(vec):
            raise InvariantViolation("generator is not a kernel element")
    span = Subspace.from_spanning(vectors, len(edge_basis), N)
    shortfall = kernel.dim - span.dim
    if shortfall:
        for kv in kernel.basis:
            if not span.contains(kv):
                chain = {edge_basis[i]: c for i, c in kv.items()}
                generators.append(Z1Generator("completion", chain))
                span = Subspace.from_spanning(
                    list(span.basis) + [kv], len(edge_basis), N)
                if span.dim == kernel.dim:
                    break

    # one fundamental cycle per non-tree edge: |E| - |V| + components
    if kernel.dim > len(cycles):
        raise InvariantViolation("kernel exceeded the circuit-rank bound")
    return Z1Result(generators, cycles, flags, kernel.dim, shortfall)
