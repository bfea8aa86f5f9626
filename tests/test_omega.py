import math
import random
from fractions import Fraction

import pytest

from conftest import boundary_reference, regular_boundary
from mayerpath.boundary import verify_nilpotency
from mayerpath.complexes import Digraph, PathComplex, path_complex_from_digraph
from mayerpath.cyclotomic import Scalar
from mayerpath.fixtures import ALL_FIXTURES, DIGRAPH_FIXTURES, load_digraph, load_fixture
from mayerpath.homology import cycle_space
from mayerpath.linalg import InvariantViolation, Matrix, Subspace, nullspace
from mayerpath.omega import (OmegaSpace, _images, _integer_basis, _level, omega_full,
                             omega_nilpotency, omega_nq, verify_chain_closure)


def vec_of(P, n, terms):
    """Sparse coefficient row over the allowed n-paths from label tuples."""
    idx = {p: i for i, p in enumerate(P.paths(n))}
    label_index = {l: i for i, l in enumerate(P.labels)}
    return {idx[tuple(label_index[l] for l in labels)]: coeff for labels, coeff in terms.items()}


def _apply(bm, x):
    """The sparse image {row: value} of x = {column: coefficient} under a reference matrix."""
    out = {}
    for (r, c), v in bm.entries.items():
        xc = x.get(c)
        if xc:
            out[r] = out.get(r, Scalar.zero(bm.order)) + xc * v
    return {r: v for r, v in out.items() if v}


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
            assert omega_nq(P, 2, q, N).space.dim == len(P.paths(2))
        assert omega_nq(P, 1, min(2, N - 1), N).space.dim == len(P.paths(1))


def test_full_space_contained_in_every_level(diamond):
    for N in (2, 3, 4):
        full = omega_full(diamond, 2, N).space
        for q in range(1, N):
            level = omega_nq(diamond, 2, q, N).space
            assert all(level.contains(row) for row in full.basis)


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
    bm = boundary_reference(diamond, 3, 1, 3)
    (image,) = [_apply(bm, x) for x in space.basis]
    assert max(image) < bm.allowed_rows  # the image itself is allowed
    target = omega_nq(diamond, 2, 1, 3).space
    assert target.ambient_dim == bm.allowed_rows
    assert not target.contains(image)


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


# -- references for the three `check` invariants, from single boundary steps


def _step(P, n, N, x):
    """d x for x = {index of an allowed n-path: coefficient}, as {path: coefficient}."""
    bm = boundary_reference(P, n, 1, N)
    return {bm.row_paths[r]: v for r, v in _apply(bm, x).items()}


def _indexed(P, n, chain):
    """The chain over allowed n-paths as {index: coefficient}; None if one is not allowed."""
    index = {p: i for i, p in enumerate(P.paths(n))}
    if any(p not in index for p in chain):
        return None
    return {index[p]: c for p, c in chain.items()}


def _reference_nilpotency(P, N, n_max):
    for m in range(n_max + 1):
        for x in omega_full(P, m, N).space.basis:
            for k in range(1, N):
                x = _indexed(P, m - k, _step(P, m - k + 1, N, x))
                assert x is not None  # d^k of an invariant chain stays allowed for k < N
            if _step(P, m - N + 1, N, x):
                return False
    return True


def _reference_closure(P, N, n):
    target = omega_full(P, n - 1, N).space
    for x in omega_full(P, n, N).space.basis:
        y = _indexed(P, n - 1, _step(P, n, N, x))
        if y is None:
            return False
        if not target.contains(y):
            return False
    return True


def _reference_span_nilpotency(P, N, n_max):
    for n in range(n_max + 1):
        for p in P.paths(n):
            chain = {p: Scalar.one(N)}
            for _ in range(N):
                chain = regular_boundary(chain, N)
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
    from conftest import antiparallel_complexes

    rng = random.Random(532)
    max_dim = 5
    seen = {"omega_nilpotency": set(), "verify_chain_closure": set(),
            "verify_nilpotency": set()}
    for g, P in antiparallel_complexes(rng, 40, max_dim, 250):
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
            for row in boundary_reference(P, n, q, N).nonallowed_block().row_dicts()]
    if not rows:
        return Subspace.full_space(len(P.paths(n)), N)
    return nullspace(Matrix.from_row_dicts(rows, len(P.paths(n)), N))


def test_level_one_equals_single_level_space():
    """The rational level-1 solve (peel, then Q) against the Q(zeta_N) kernel of d^1.

    ``omega_nq`` with q = 1 reads the level itself, so the reference is
    the nullspace of the non-allowed block of the reference d^1 matrix;
    ``omega_nq`` must agree with both.  Each single-level space with
    q = 2..N-1, n <= 4, is checked against the same reference for d^q, on
    the fixtures and 12 seeded digraphs with an antiparallel pair.
    """
    from conftest import antiparallel_complexes

    rng = random.Random(606)
    complexes = [load_fixture(name) for name in ALL_FIXTURES]
    complexes += [P for _, P in antiparallel_complexes(rng, 40, 6, 300)]
    kinds = set()
    for P in complexes:
        for N in range(2, 7):
            for n in range(7):
                got = _level(P, n, 1, N)
                ref = nullspace(boundary_reference(P, n, 1, N).nonallowed_block())
                assert omega_nq(P, n, 1, N).space is got, (P.digest(), N, n)
                assert got.basis == ref.basis, (P.digest(), N, n)
                assert got.pivot_cols == ref.pivot_cols, (P.digest(), N, n)
                kinds.add("zero" if got.dim == 0 else
                          "span" if got.dim == got.ambient_dim else "proper")
    assert kinds == {"zero", "span", "proper"}

    complexes = [load_fixture(name) for name in ALL_FIXTURES]
    complexes += [P for _, P in antiparallel_complexes(random.Random(616), 12, 4, 200)]
    kinds, compared = set(), 0
    for P in complexes:
        for N in range(3, 6):
            for q in range(2, N):
                for n in range(5):
                    got = omega_nq(P, n, q, N).space
                    ref = nullspace(boundary_reference(P, n, q, N).nonallowed_block())
                    assert got.basis == ref.basis, (P.digest(), N, q, n)
                    assert got.pivot_cols == ref.pivot_cols, (P.digest(), N, q, n)
                    kinds.add("zero" if got.dim == 0 else
                              "span" if got.dim == got.ambient_dim else "proper")
                    compared += 1
    assert compared == 690
    assert kinds == {"zero", "span", "proper"}


def test_omega_full_equals_stacked_reference():
    """The level recursion against one elimination of every boundary power's rows."""
    from conftest import antiparallel_complexes

    rng = random.Random(707)
    complexes = [load_fixture(name) for name in ALL_FIXTURES]
    complexes += [P for _, P in antiparallel_complexes(rng, 30, 6, 200)]
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


def test_omega_bases_are_in_canonical_sparse_form():
    """Each basis row of omega_full and omega_nq, n <= 3, N = 2..5, is a canonical sparse row.

    Its keys ascend and lie in the ambient space, it stores no zero, it
    leads with its pivot entry 1, and no other row has an entry in its
    pivot column; the pivot columns strictly increase.  On the 11
    fixtures and 20 seeded digraphs with an antiparallel pair.
    """
    from conftest import antiparallel_complexes

    complexes = [load_fixture(name) for name in ALL_FIXTURES]
    assert len(complexes) == 11
    complexes += [P for _, P in antiparallel_complexes(random.Random(7), 20, 3, 200)]
    seen = {"rows": 0, "rows with several entries": 0, "zeta entries": 0}
    for P in complexes:
        for N in range(2, 6):
            one = Scalar.one(N)
            for n in range(4):
                spaces = [omega_full(P, n, N).space]
                spaces += [omega_nq(P, n, q, N).space for q in range(1, N)]
                for space in spaces:
                    pivots = space.pivot_cols
                    assert len(pivots) == space.dim
                    assert all(a < b for a, b in zip(pivots, pivots[1:]))
                    for row, p in zip(space.basis, pivots):
                        keys = list(row)
                        assert all(a < b for a, b in zip(keys, keys[1:])), keys
                        assert 0 <= keys[0] and keys[-1] < space.ambient_dim
                        assert all(row.values())
                        assert keys[0] == p and row[p] == one
                        assert not set(pivots).intersection(keys[1:])
                        seen["rows"] += 1
                        seen["rows with several entries"] += len(row) > 1
                        seen["zeta entries"] += any(any(v.coeffs[1:]) for v in row.values())
    assert all(seen.values()), seen


def test_read_off_bases_equal_the_span_of_their_rows():
    """Every Omega level and every cycle space basis is what from_spanning makes of its rows.

    The level-j and cycle space bases are read off a kernel, not reduced
    again; on the 11 fixtures and 20 seeded digraphs with an antiparallel
    pair, N = 2..5, n <= 3, they equal the RREF of their own rows entry
    for entry, key order and pivot columns included.
    """
    from conftest import antiparallel_complexes

    complexes = [load_fixture(name) for name in ALL_FIXTURES]
    assert len(complexes) == 11
    complexes += [P for _, P in antiparallel_complexes(random.Random(7), 20, 3, 200)]
    seen = {"levels": 0, "cycle spaces": 0, "proper subspaces": 0}
    for P in complexes:
        for N in range(2, 6):
            for n in range(4):
                spaces = [("levels", _level(P, n, j, N)) for j in range(1, N)]
                spaces += [("cycle spaces", cycle_space(P, n, q, N)) for q in range(1, N)]
                for kind, space in spaces:
                    again = Subspace.from_spanning(space.basis, space.ambient_dim, N)
                    assert [list(row.items()) for row in space.basis] == \
                        [list(row.items()) for row in again.basis], (kind, n, N)
                    assert space.pivot_cols == again.pivot_cols, (kind, n, N)
                    seen[kind] += 1
                    seen["proper subspaces"] += 0 < space.dim < space.ambient_dim
    assert all(seen.values()), seen


def _in_field(row, N):
    return {c: Scalar(N, tuple(Fraction(a) for a in t)) for c, t in row.items()}


def _check_integer_images(P, m, N):
    """Integer rows and images of Omega_m^N against its Q(zeta_N) basis and reference d^r.

    Each integer row, read in Q(zeta_N), is its basis row times its
    scale, the lcm of the row's denominators; the image of d^r is the
    reference d^r matrix (r steps in Q(zeta_N) through the full regular
    span, not over the allowed face table) applied to that scaled row.  Returns the number of nonzero images.
    """
    basis = omega_full(P, m, N).space.basis
    rows, scales = _integer_basis(P, m, N - 1, N)
    assert len(rows) == len(scales) == len(basis)
    images = _images(P, m, N)
    nonzero = 0
    for i, (x, row, scale) in enumerate(zip(basis, rows, scales)):
        assert scale == math.lcm(*(a.denominator for v in x.values() for a in v.coeffs)), i
        scaled = {c: v * scale for c, v in x.items()}
        assert _in_field(row, N) == scaled, i
        for r in range(1, N):
            ref = _apply(boundary_reference(P, m, r, N), scaled)
            assert _in_field(images[r - 1][i], N) == ref, (r, i)
            nonzero += bool(ref)
    return nonzero


def test_integer_images_equal_the_boundary_powers_of_the_basis():
    """Fixtures and seeded antiparallel digraphs at N = 2..6.

    The last digraph has basis rows with zeta coefficients at N = 5.
    """
    from conftest import antiparallel_complexes

    rng = random.Random(808)
    complexes = [load_fixture(name) for name in ALL_FIXTURES]
    complexes += [P for _, P in antiparallel_complexes(rng, 20, 5, 200)]
    complexes.append(path_complex_from_digraph(Digraph(
        tuple("123456"), ((0, 1), (0, 3), (1, 0), (1, 2), (1, 5), (2, 3), (2, 5), (3, 0),
                          (3, 2), (4, 2), (4, 5), (5, 0), (5, 3), (5, 4))), 5))
    seen = {"zero image": 0, "nonzero image": 0, "zeta coefficient": 0}
    for P in complexes:
        for N in range(2, 7):
            for m in range(6):
                images = sum(len(_images(P, m, N)[r]) for r in range(N - 1))
                nonzero = _check_integer_images(P, m, N)
                seen["nonzero image"] += nonzero
                seen["zero image"] += images - nonzero
                seen["zeta coefficient"] += any(
                    any(t[1:]) for row in _integer_basis(P, m, N - 1, N)[0]
                    for t in row.values())
    assert all(seen.values()), seen


def test_integer_basis_clears_the_denominators_of_each_row():
    """Basis rows given denominators, at level 1 (over Q) and level 2 (over Q(zeta_3)).

    No corpus complex has a canonical basis with a denominator, so the
    memo is seeded with multiples of the true rows, which stay in
    Omega_m^N.
    """
    P = load_fixture("braid")
    basis = omega_full(P, 2, 2).space.basis
    P = load_fixture("braid")
    factors = [Fraction(k + 2, 3 + 2 * k) for k in range(len(basis))]
    P._memo[("ordinary_omega", 2)] = (
        [{c: v.coeffs[0] * f for c, v in x.items()} for x, f in zip(basis, factors)],
        (),
    )
    assert _check_integer_images(P, 2, 2)
    assert max(_integer_basis(P, 2, 1, 2)[1]) > 1

    P = load_fixture("trapezohedron_m2")
    space = omega_full(P, 3, 3).space
    assert space.dim and _level(P, 3, 2, 3) is space
    factor = Scalar(3, (Fraction(1, 2), Fraction(-2, 9)))
    P = load_fixture("trapezohedron_m2")
    scaled = Subspace(space.ambient_dim, 3, tuple({c: v * factor for c, v in x.items()}
                                                  for x in space.basis), space.pivot_cols)
    P._memo[("omega_full", 3, 3)] = OmegaSpace(3, 3, None, scaled)
    P._memo[("omega_level", 3, 2, 3)] = scaled
    assert _check_integer_images(P, 3, 3)
    assert _integer_basis(P, 3, 2, 3)[1] == [18]


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


def test_level_one_builds_no_face_table_where_omega_is_zero():
    # on the directed line 1->2->3->4 every 2- and 3-path has a missing
    # shortcut, so level 1 is 0 there and no level or image needs d^1
    P = path_complex_from_digraph(Digraph(tuple("1234"), ((0, 1), (1, 2), (2, 3))), 3)
    for N in (2, 3, 4):
        for m in (2, 3):
            assert P.paths(m)
            assert _level(P, m, 1, N).dim == 0
            assert omega_full(P, m, N).space.dim == 0
            assert ("faces", m) not in P._memo, (N, m)
