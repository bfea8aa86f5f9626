import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mayerpath.cyclotomic import Scalar, zeta_power
from mayerpath.linalg import (
    AmbientMismatch,
    Matrix,
    NotASubspace,
    Subspace,
    intersect,
    nullspace,
    quotient_dim,
    rank,
)


def scal(N, v):
    return Scalar.from_rational(N, v)


def dense(N, rows):
    entries = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                entries[(r, c)] = v
    return Matrix(len(rows), len(rows[0]) if rows else 0, N, entries)


def loop4_boundary(N):
    """Edge boundary of the 4-node feedback loop, rows e1..e4."""
    xi = zeta_power(N, 1)
    one = Scalar.one(N)
    z = Scalar.zero(N)
    # columns: e12, e14, e32, e43
    return dense(N, [
        [xi, xi, z, z],
        [one, z, one, z],
        [z, z, xi, one],
        [z, one, z, xi],
    ])


def _rref(m):
    """Reference Gauss-Jordan: reduced row echelon form, rank and pivot columns.

    Dense rows; for each column in turn the first remaining row with a
    nonzero entry there is the pivot, normalised to 1 and cleared above
    and below.
    """
    zero = Scalar.zero(m.order)
    rows = [[m.entries.get((r, c), zero) for c in range(m.cols)] for r in range(m.rows)]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    entries = {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v}
    return Matrix(m.rows, m.cols, m.order, entries), len(pivots), tuple(pivots)


def test_rref_identity():
    N = 3
    one, z = Scalar.one(N), Scalar.zero(N)
    m = dense(N, [[one, z, z], [z, one, z], [z, z, one]])
    red, rk, pivots = _rref(m)
    assert rk == 3 and pivots == (0, 1, 2)
    assert red.entries == m.entries
    assert rank(m.row_dicts()) == 3 and nullspace(m).dim == 0


def test_rref_duplicate_rows():
    N = 4
    xi, one, z = zeta_power(N, 1), Scalar.one(N), Scalar.zero(N)
    m = dense(N, [[xi, one, z], [xi, one, z]])
    _, rk, _ = _rref(m)
    assert rk == 1
    assert rank(m.row_dicts()) == 1 and nullspace(m).dim == 2


def test_loop4_boundary_full_rank_at_order_3():
    _, rk, _ = _rref(loop4_boundary(3))
    assert rk == 4
    assert rank(loop4_boundary(3).row_dicts()) == 4
    assert nullspace(loop4_boundary(3)).dim == 0


def test_loop4_boundary_kernel_at_order_2():
    space = nullspace(loop4_boundary(2))
    assert space.dim == 1
    one = Scalar.one(2)
    # e14 + e43 + e32 - e12 in column order (e12, e14, e32, e43)
    vec = (Scalar.from_rational(2, -1), one, one, one)
    assert space.contains(vec)


def test_nullspace_zero_matrix():
    N = 3
    m = Matrix(2, 2, N, {})
    assert nullspace(m).dim == 2


def test_rank_equals_transpose_rank_random():
    rng = random.Random(42)
    for N in (2, 3, 4):
        for _ in range(40):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            entries = {}
            for r in range(rows):
                for c in range(cols):
                    if rng.random() < 0.4:
                        entries[(r, c)] = zeta_power(N, rng.randrange(N)) * \
                            Fraction(rng.randint(-3, 3))
            m = Matrix(rows, cols, N, entries)
            _, rank_m, _ = _rref(m)
            transpose = Matrix(cols, rows, N, {(c, r): v for (r, c), v in entries.items()})
            _, rank_t, _ = _rref(transpose)
            assert rank_m == rank_t
            # forward elimination agrees, and consumes rows lazily
            assert rank(iter(m.row_dicts())) == rank_m


def _reference_nullspace(m):
    """The RREF of m, then the canonical span of its free-column vectors."""
    reduced, rk, pivots = _rref(m)
    rows = reduced.row_dicts()[:rk]
    zero, one = Scalar.zero(m.order), Scalar.one(m.order)
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        vec = [zero] * m.cols
        vec[f] = one
        for row, p in zip(rows, pivots):
            if f in row:
                vec[p] = -row[f]
        vectors.append(tuple(vec))
    return Subspace.from_spanning(vectors, m.cols, m.order)


def _random_matrix(rng, N, rows, cols, rank_cap):
    """rows x cols, each row a random combination of rank_cap random rows."""
    def entry(density):
        if rng.random() >= density:
            return Scalar.zero(N)
        return zeta_power(N, rng.randrange(N)) * Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))

    base = [[entry(0.6) for _ in range(cols)] for _ in range(rank_cap)]
    entries = {}
    for r in range(rows):
        weights = [entry(0.7) for _ in range(rank_cap)]
        for c in range(cols):
            v = Scalar.zero(N)
            for w, b in zip(weights, base):
                if w and b[c]:
                    v = v + w * b[c]
            if v:
                entries[(r, c)] = v
    return Matrix(rows, cols, N, entries)


def test_nullspace_matches_rref_reference_random():
    rng = random.Random(2026)
    for N in (2, 3, 4, 5, 6):
        shapes = {"tall full rank": 0, "tall deficient": 0, "wide": 0, "zero": 0}
        for _ in range(16):
            cols = rng.randint(1, 7)
            kind = rng.choice(("tall", "tall", "wide", "zero"))
            if kind == "tall":
                rows = rng.randint(cols + 1, 3 * cols + 2)
                m = _random_matrix(rng, N, rows, cols, rng.randint(1, cols + 1))
            elif kind == "wide":
                rows = rng.randint(1, cols)
                m = _random_matrix(rng, N, rows, cols + 1, rng.randint(1, rows))
            else:
                m = Matrix(rng.randint(1, 5), cols, N, {})
            _, rk, _ = _rref(m)
            if not m.entries:
                shapes["zero"] += 1
            elif m.rows > m.cols:
                shapes["tall full rank" if rk == m.cols else "tall deficient"] += 1
            elif m.rows < m.cols:
                shapes["wide"] += 1
            space = nullspace(m)
            ref = _reference_nullspace(m)
            assert space.basis == ref.basis
            assert space.pivot_cols == ref.pivot_cols
            assert space.dim == m.cols - rk
            for vec in space.basis:
                product = [Scalar.zero(N)] * m.rows
                for (r, c), v in m.entries.items():
                    product[r] = product[r] + v * vec[c]
                assert not any(product)
        assert all(shapes.values()), (N, shapes)


def _random_vectors(rng, N, ambient, count):
    vecs = []
    for _ in range(count):
        vecs.append(tuple(
            zeta_power(N, rng.randrange(N)) * Fraction(rng.randint(-2, 2))
            for _ in range(ambient)
        ))
    return vecs


def test_subspace_canonical_under_shuffle_and_recombination():
    rng = random.Random(5)
    N = 3
    for _ in range(25):
        ambient = rng.randint(2, 6)
        vecs = _random_vectors(rng, N, ambient, rng.randint(1, 4))
        s1 = Subspace.from_spanning(vecs, ambient, N)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        # throw in sums of pairs; the span is unchanged
        if len(shuffled) >= 2:
            shuffled.append(tuple(a + b for a, b in zip(shuffled[0], shuffled[1])))
        s2 = Subspace.from_spanning(shuffled, ambient, N)
        assert s1 == s2
        assert s1.basis == s2.basis


def test_intersect_examples():
    N = 3
    one, z = Scalar.one(N), Scalar.zero(N)
    a = Subspace.from_spanning([(one, z)], 2, N)
    b = Subspace.from_spanning([(z, one)], 2, N)
    assert intersect(a, b).dim == 0
    assert intersect(a, a) == a


def test_intersect_properties_random():
    rng = random.Random(99)
    N = 3
    for _ in range(20):
        ambient = rng.randint(2, 5)
        a = Subspace.from_spanning(_random_vectors(rng, N, ambient, 2), ambient, N)
        b = Subspace.from_spanning(_random_vectors(rng, N, ambient, 2), ambient, N)
        c = Subspace.from_spanning(_random_vectors(rng, N, ambient, 2), ambient, N)
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a, intersect(b, c)) == intersect(intersect(a, b), c)
        assert intersect(a, a) == a
        assert intersect(a, b).dim <= min(a.dim, b.dim)


def test_quotient_dim():
    N = 3
    full = Subspace.full_space(4, N)
    one, z = Scalar.one(N), Scalar.zero(N)
    b = Subspace.from_spanning(
        [(one, z, z, z), (z, one, z, z), (z, z, one, z)], 4, N)
    assert quotient_dim(full, b) == 1
    assert quotient_dim(b, b) == 0
    assert quotient_dim(b, Subspace.zero_space(4, N)) == 3
    outside = Subspace.from_spanning([(z, z, z, one)], 4, N)
    with pytest.raises(NotASubspace):
        quotient_dim(b, outside)


def test_in_span():
    N = 3
    one, z = Scalar.one(N), Scalar.zero(N)
    s = Subspace.from_spanning([(one, one, z)], 3, N)
    assert s.contains((z, z, z))
    assert s.contains(s.basis[0])
    assert not s.contains((one, z, z))


def test_ambient_mismatch():
    N = 3
    a = Subspace.full_space(2, N)
    b = Subspace.full_space(3, N)
    with pytest.raises(AmbientMismatch):
        intersect(a, b)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), N=st.sampled_from((2, 3, 4)))
def test_span_membership_closed_under_combination(data, N):
    ambient = data.draw(st.integers(2, 5))
    coeff = st.integers(-3, 3)
    vecs = data.draw(st.lists(
        st.tuples(*[coeff] * ambient), min_size=1, max_size=3))
    scalars = [tuple(Scalar.from_rational(N, c) for c in v) for v in vecs]
    s = Subspace.from_spanning(scalars, ambient, N)
    weights = data.draw(st.lists(coeff, min_size=len(vecs), max_size=len(vecs)))
    combo = [Scalar.zero(N)] * ambient
    for w, vec in zip(weights, scalars):
        combo = [a + Scalar.from_rational(N, w) * b for a, b in zip(combo, vec)]
    assert s.contains(combo)

