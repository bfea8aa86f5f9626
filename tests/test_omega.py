import random
from fractions import Fraction

import pytest

from mayerpath.boundary import boundary_power_matrix, verify_nilpotency
from mayerpath.complexes import Digraph, PathComplex, parse_digraph, path_complex_from_digraph
from mayerpath.cyclotomic import Scalar, zeta_power
from mayerpath.fixtures import ALL_FIXTURES, DIGRAPH_FIXTURES, load_digraph, load_fixture
from mayerpath.linalg import InvariantViolation, Matrix, Subspace, nullspace
from mayerpath.omega import _level, omega_full, omega_nilpotency, omega_nq, verify_chain_closure


def vec_of(P, n, terms):
    """Dense coefficient vector over the allowed n-paths from label tuples."""
    paths = P.paths(n)
    idx = {p: i for i, p in enumerate(paths)}
    N = next(iter(terms.values())).order
    out = [Scalar.zero(N)] * len(paths)
    label_index = {l: i for i, l in enumerate(P.labels)}
    for labels, coeff in terms.items():
        p = tuple(label_index[l] for l in labels)
        out[idx[p]] = coeff
    return out


def test_diamond_level_spaces(diamond):
    assert omega_nq(diamond, 2, 1, 3).space.dim == 3
    assert omega_nq(diamond, 2, 2, 3).space.dim == 4
    assert omega_nq(diamond, 3, 1, 3).space.dim == 1
    assert omega_nq(diamond, 3, 2, 3).space.dim == 0
    assert omega_full(diamond, 3, 3).space.dim == 0
    assert omega_full(diamond, 3, 2).space.dim == 1
    assert [omega_full(diamond, n, 3).space.dim for n in range(4)] == [4, 5, 3, 0]


def test_diamond_basis_matches_published_span(diamond):
    one = Scalar.one(3)
    space = omega_nq(diamond, 2, 1, 3).space
    for terms in (
        {("1", "2", "3"): one},
        {("1", "2", "4"): one, ("1", "3", "4"): -one},
        {("2", "3", "4"): one},
    ):
        assert space.contains(vec_of(diamond, 2, terms))
    # e_{1,2,4} alone does not lie in the level-1 space
    assert not space.contains(vec_of(diamond, 2, {("1", "2", "4"): one}))


def test_biparallel_invariant_two_chains():
    P = load_fixture("biparallel")
    one = Scalar.one(3)
    space = omega_full(P, 2, 3).space
    assert space.dim == 1
    assert space.contains(vec_of(P, 2, {("1", "4", "3"): one, ("1", "2", "3"): -one}))


def test_edges_unconstrained(diamond):
    assert omega_full(diamond, 1, 3).space.dim == 5
    assert omega_full(diamond, 0, 3).space.dim == 4


def test_level_spaces_vacuous_for_high_power():
    P = load_fixture("ffl")
    for N in (3, 4):
        for q in range(2, N):
            assert omega_nq(P, 2, q, N).space.dim == len(P.paths(2)) or q < 2
        assert omega_nq(P, 1, min(2, N - 1), N).space.dim == len(P.paths(1))


def test_full_space_contained_in_every_level(diamond):
    for N in (2, 3, 4):
        full = omega_full(diamond, 2, N).space
        for q in range(1, N):
            level = omega_nq(diamond, 2, q, N).space
            assert level.contains_space(full)


def test_simplicial_complexes_have_no_constraints(torus):
    for N in (2, 3, 4):
        for n in range(3):
            assert omega_full(torus, n, N).space.dim == len(torus.paths(n))
            for q in range(1, N):
                assert omega_nq(torus, n, q, N).space.dim == len(torus.paths(n))


def test_chain_closure_on_fixtures():
    for name in DIGRAPH_FIXTURES:
        P = load_fixture(name)
        for N in (2, 3, 4):
            for n in range(1, 4):
                assert verify_chain_closure(P, N, n), (name, N, n)


def test_chain_closure_fails_for_single_level_space(diamond):
    # the level-(3,1) space in dim 3 maps outside the level-(3,1) space in
    # dim 2: the intersection construction exists precisely to fix this
    space = omega_nq(diamond, 3, 1, 3).space
    assert space.dim == 1
    bm = boundary_power_matrix(diamond, 3, 1, 3)
    (image,) = bm.images(space)
    assert max(image) < bm.allowed_rows  # the image itself is allowed
    target = omega_nq(diamond, 2, 1, 3).space
    vec = [image.get(i, Scalar.zero(3)) for i in range(bm.allowed_rows)]
    assert not target.contains(vec)


def test_omega_nilpotency_on_fixtures():
    for name in DIGRAPH_FIXTURES:
        if name == "trapezohedron_m2":
            continue  # covered below with a smaller range (larger complex)
        P = load_fixture(name)
        for N in (2, 3, 4, 5):
            assert omega_nilpotency(P, N, 4), (name, N)
    P = load_fixture("trapezohedron_m2")
    for N in (2, 3, 4, 5):
        assert omega_nilpotency(P, N, 4), N


def test_monotone_under_edge_addition():
    rng = random.Random(31)
    for name in ("diamond", "loop4", "biparallel", "bifan", "ffl"):
        g = load_digraph(name)
        missing = [(u, v) for u in range(g.n) for v in range(g.n)
                   if u != v and (u, v) not in g.edge_set]
        for _ in range(3):
            extra = rng.choice(missing)
            bigger = Digraph(g.labels, g.edges + (extra,))
            P_small = path_complex_from_digraph(g, 3)
            P_big = path_complex_from_digraph(bigger, 3)
            for N in (2, 3):
                for n in range(4):
                    for q in range(1, N):
                        small = omega_nq(P_small, n, q, N).space.dim
                        big = omega_nq(P_big, n, q, N).space.dim
                        assert big >= small, (name, extra, N, n, q)


def _classical_omega_dims(g: Digraph, max_dim: int) -> list[int]:
    """Standard (sign-alternating) invariant-path dimensions, coded densely."""
    P = path_complex_from_digraph(g, max_dim)
    dims = []
    for n in range(max_dim + 1):
        paths = P.paths(n)
        if n <= 1:
            dims.append(len(paths))
            continue
        lower = P.allowed_set(n - 1)
        # rows: non-allowed faces; columns: allowed n-paths; entries (-1)^j
        rows: dict[tuple, dict[int, Fraction]] = {}
        for c, p in enumerate(paths):
            for j in range(len(p)):
                f = p[:j] + p[j + 1:]
                if any(f[i] == f[i + 1] for i in range(len(f) - 1)):
                    continue
                if f in lower:
                    continue
                rows.setdefault(f, {})[c] = rows.setdefault(f, {}).get(c, Fraction(0)) \
                    + Fraction(-1) ** j
        mat = [[row.get(c, Fraction(0)) for c in range(len(paths))]
               for row in rows.values()]
        rank = 0
        cols = len(paths)
        taken = []
        for c in range(cols):
            piv = next((i for i in range(len(mat)) if i not in taken and mat[i][c]), None)
            if piv is None:
                continue
            taken.append(piv)
            rank += 1
            for i in range(len(mat)):
                if i != piv and mat[i][c]:
                    f = mat[i][c] / mat[piv][c]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[piv])]
        dims.append(cols - rank)
    return dims


def test_order_two_matches_classical_path_homology_omega():
    rng = random.Random(77)
    names = list(DIGRAPH_FIXTURES)
    for name in names:
        g = load_digraph(name)
        P = load_fixture(name)
        expected = _classical_omega_dims(g, 3)
        got = [omega_full(P, n, 2).space.dim for n in range(4)]
        assert got == expected, name
    from conftest import random_digraph
    for _ in range(30):
        g = random_digraph(rng)
        P = path_complex_from_digraph(g, 3)
        assert [omega_full(P, n, 2).space.dim for n in range(4)] == \
            _classical_omega_dims(g, 3)


def _antiparallel_complexes(rng, count, max_dim, budget):
    """Seeded digraph complexes with an antiparallel pair and at most budget paths up to max_dim."""
    from conftest import random_digraph

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


# -- references for the three `check` invariants, from single boundary steps


def _step(P, n, N, x):
    """d x for x = {index of an allowed n-path: coefficient}, as {path: coefficient}."""
    bm = boundary_power_matrix(P, n, 1, N)
    out = {}
    for c, xc in x.items():
        for r, v in bm.columns[c]:
            f = bm.row_paths[r]
            out[f] = out.get(f, Scalar.zero(N)) + xc * v
    return {f: v for f, v in out.items() if v}


def _indexed(P, n, chain):
    """The chain over allowed n-paths as {index: coefficient}; None if one is not allowed."""
    index = {p: i for i, p in enumerate(P.paths(n))}
    if any(p not in index for p in chain):
        return None
    return {index[p]: c for p, c in chain.items()}


def _basis(P, n, N):
    return [{i: c for i, c in enumerate(row) if c} for row in omega_full(P, n, N).space.basis]


def _reference_nilpotency(P, N, n_max):
    for m in range(n_max + 1):
        for x in _basis(P, m, N):
            for k in range(1, N):
                x = _indexed(P, m - k, _step(P, m - k + 1, N, x))
                assert x is not None  # d^k of an invariant chain stays allowed for k < N
            if _step(P, m - N + 1, N, x):
                return False
    return True


def _reference_closure(P, N, n):
    target = omega_full(P, n - 1, N).space
    for x in _basis(P, n, N):
        y = _indexed(P, n - 1, _step(P, n, N, x))
        if y is None:
            return False
        if not target.contains([y.get(i, Scalar.zero(N)) for i in range(target.ambient_dim)]):
            return False
    return True


def _regular_boundary(chain, N):
    """One regular boundary step on {path: coefficient} chains over any regular paths."""
    out = {}
    for p, c in chain.items():
        for j in range(len(p) if len(p) > 1 else 0):
            f = p[:j] + p[j + 1:]
            if all(a != b for a, b in zip(f, f[1:])):
                out[f] = out.get(f, Scalar.zero(N)) + c * zeta_power(N, j)
    return {f: v for f, v in out.items() if v}


def _reference_span_nilpotency(P, N, n_max):
    for n in range(n_max + 1):
        for p in P.paths(n):
            chain = {p: Scalar.one(N)}
            for _ in range(N):
                chain = _regular_boundary(chain, N)
            if chain:
                return False
    return True


def test_check_invariants_match_references_with_antiparallel_pairs():
    """Both outcomes of every `check` invariant, against single-step references.

    The Omega-side references multiply single-step boundary matrices (an
    invariant chain's images stay allowed for fewer than N steps); the
    regular-span one steps through non-allowed paths too, so it deletes
    faces itself.
    """
    rng = random.Random(532)
    max_dim = 5
    seen = {"omega_nilpotency": set(), "verify_chain_closure": set(),
            "verify_nilpotency": set()}
    for g, P in _antiparallel_complexes(rng, 40, max_dim, 250):
        for N in (2, 3, 4, 5):
            got = omega_nilpotency(P, N, max_dim)
            assert got == _reference_nilpotency(P, N, max_dim), (g, N)
            seen["omega_nilpotency"].add(got)
            for n in range(1, max_dim + 1):
                got = verify_chain_closure(P, N, n)
                assert got == _reference_closure(P, N, n), (g, N, n)
                seen["verify_chain_closure"].add(got)
            got = verify_nilpotency(P, N, max_dim)
            assert got == _reference_span_nilpotency(P, N, max_dim), (g, N)
            seen["verify_nilpotency"].add(got)
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen


# -- the level recursion against single-level and stacked references


def _stacked_reference(P, n, N):
    """Omega_n^N as one nullspace of the stacked non-allowed rows of d^1 .. d^min(N-1, n-1)."""
    rows = [row for q in range(1, min(N - 1, n - 1) + 1)
            for row in boundary_power_matrix(P, n, q, N).nonallowed_block().row_dicts()]
    if not rows:
        return Subspace.full_space(len(P.paths(n)), N)
    return nullspace(Matrix.from_row_dicts(rows, len(P.paths(n)), N))


def test_level_one_equals_single_level_space():
    """The rational level-1 solve (peel, then Q) against the Q(zeta_N) kernel of d^1."""
    rng = random.Random(606)
    complexes = [load_fixture(name) for name in ALL_FIXTURES]
    complexes += [P for _, P in _antiparallel_complexes(rng, 40, 6, 300)]
    kinds = set()
    for P in complexes:
        for N in range(2, 7):
            for n in range(7):
                got = _level(P, n, 1, N)
                ref = omega_nq(P, n, 1, N).space
                assert got.basis == ref.basis, (P.digest(), N, n)
                assert got.pivot_cols == ref.pivot_cols, (P.digest(), N, n)
                kinds.add("zero" if got.dim == 0 else
                          "span" if got.dim == got.ambient_dim else "proper")
    assert kinds == {"zero", "span", "proper"}


def test_omega_full_equals_stacked_reference():
    """The level recursion against one elimination of every boundary power's rows."""
    rng = random.Random(707)
    complexes = [load_fixture(name) for name in ALL_FIXTURES]
    complexes += [P for _, P in _antiparallel_complexes(rng, 30, 6, 200)]
    cut_by_higher_levels = 0
    for P in complexes:
        for N in range(2, 6):
            for n in range(7):
                got = omega_full(P, n, N).space
                ref = _stacked_reference(P, n, N)
                assert got.basis == ref.basis, (P.digest(), N, n)
                assert got.pivot_cols == ref.pivot_cols, (P.digest(), N, n)
                cut_by_higher_levels += got.dim < _level(P, n, 1, N).dim
    assert cut_by_higher_levels


def _hand_built(dims):
    P = PathComplex(tuple(str(v) for v in range(4)), "simplicial", {})
    P._dims = {n: tuple(sorted(paths)) for n, paths in dims.items()}
    return P


def test_face_reached_from_two_positions_raises():
    # (0,1,2) is not allowed and is the face of (0,1,3,2) at position 2 and of
    # (0,3,1,2) at position 1, so its row of d^1 is zeta^2 e_0 + zeta e_1, not
    # a unit times a 0/1 row; no digraph complex has such a face
    P = _hand_built({
        0: [(0,), (1,), (2,), (3,)],
        1: [(0, 1), (0, 3), (1, 2), (1, 3), (3, 1), (3, 2)],
        2: [(0, 1, 3), (0, 3, 1), (0, 3, 2), (1, 3, 2), (3, 1, 2)],
        3: [(0, 1, 3, 2), (0, 3, 1, 2)],
    })
    assert not P.is_allowed((0, 1, 2))
    for N in (2, 3, 5):
        with pytest.raises(InvariantViolation, match="deleting positions 2 and 1"):
            omega_full(P, 3, N)


def test_non_allowed_end_face_raises():
    P = _hand_built({0: [(0,), (1,), (2,)], 1: [(0, 1)], 2: [(0, 1, 2)]})
    with pytest.raises(InvariantViolation, match="end face"):
        omega_full(P, 2, 3)
