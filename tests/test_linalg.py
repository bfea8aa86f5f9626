import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mayerpath import linalg
from mayerpath.cli import MAX_ORDER
from mayerpath.cyclotomic import Scalar, euler_phi, integer_powers, zeta_power
from mayerpath.linalg import (
    AmbientMismatch,
    Matrix,
    Subspace,
    nullspace,
    certified_rank,
    rank_mod,
)


def sparse(vec):
    """The sparse row of a dense vector: its nonzero entries by column."""
    return {c: v for c, v in enumerate(vec) if v}


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


def _int_rows(m):
    """The rows of a matrix with entries in Z[zeta_N], as tuples of power-basis ints."""
    rows = []
    for row in m.row_dicts():
        assert all(a.denominator == 1 for v in row.values() for a in v.coeffs)
        rows.append({c: tuple(a.numerator for a in v.coeffs) for c, v in row.items()})
    return rows


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
    assert certified_rank(_int_rows(m), N) == 3 and nullspace(m).dim == 0


def test_rref_duplicate_rows():
    N = 4
    xi, one, z = zeta_power(N, 1), Scalar.one(N), Scalar.zero(N)
    m = dense(N, [[xi, one, z], [xi, one, z]])
    _, rk, _ = _rref(m)
    assert rk == 1
    assert certified_rank(_int_rows(m), N) == 1 and nullspace(m).dim == 2


def test_loop4_boundary_full_rank_at_order_3():
    _, rk, _ = _rref(loop4_boundary(3))
    assert rk == 4
    assert certified_rank(_int_rows(loop4_boundary(3)), 3) == 4
    assert nullspace(loop4_boundary(3)).dim == 0


def test_loop4_boundary_kernel_at_order_2():
    space = nullspace(loop4_boundary(2))
    assert space.dim == 1
    one = Scalar.one(2)
    # e14 + e43 + e32 - e12 in column order (e12, e14, e32, e43)
    vec = (Scalar.from_rational(2, -1), one, one, one)
    assert space.contains(sparse(vec))


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
            # the certified rank over Z[zeta_N] agrees
            assert certified_rank(_int_rows(m), N) == rank_m


def _reference_nullspace(m):
    """The RREF of m, then the canonical span of its free-column vectors."""
    reduced, rk, pivots = _rref(m)
    rows = reduced.row_dicts()[:rk]
    one = Scalar.one(m.order)
    vectors = []
    for f in range(m.cols):
        if f in pivots:
            continue
        vec = {f: one}
        for row, p in zip(rows, pivots):
            if f in row:
                vec[p] = -row[f]
        vectors.append(vec)
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
                    if c in vec:
                        product[r] = product[r] + v * vec[c]
                assert not any(product)
        assert all(shapes.values()), (N, shapes)


def _duplicated_rows(rng, m):
    """m with some of its rows repeated, in shuffled order."""
    rows = m.row_dicts()
    rows += [dict(rng.choice(rows)) for _ in range(rng.randint(1, len(rows)))]
    rng.shuffle(rows)
    return Matrix.from_row_dicts(rows, m.cols, m.order)


def test_from_spanning_equals_the_dense_reference_rref():
    """from_spanning of a matrix's rows is the reference RREF: rows, key order and pivots.

    Seeded tall, wide, all-zero and duplicate-row matrices at N = 2..6.
    """
    rng = random.Random(404)
    for N in (2, 3, 4, 5, 6):
        seen = {"tall": 0, "wide": 0, "zero": 0, "duplicate": 0, "full": 0, "deficient": 0}
        for _ in range(16):
            cols = rng.randint(1, 7)
            kind = rng.choice(("tall", "wide", "zero", "duplicate"))
            if kind == "tall":
                m = _random_matrix(rng, N, rng.randint(cols + 1, 2 * cols + 2), cols,
                                   rng.randint(1, cols + 1))
            elif kind == "wide":
                rows = rng.randint(1, cols)
                m = _random_matrix(rng, N, rows, cols + 1, rng.randint(1, rows))
            elif kind == "zero":
                m = Matrix(rng.randint(1, 5), cols, N, {})
            else:
                m = _duplicated_rows(rng, _random_matrix(rng, N, rng.randint(1, 4), cols,
                                                         rng.randint(1, 3)))
            reduced, rk, pivots = _rref(m)
            space = Subspace.from_spanning(m.row_dicts(), m.cols, N)
            assert [list(row.items()) for row in space.basis] == \
                [list(row.items()) for row in reduced.row_dicts()[:rk]], (N, kind)
            assert space.pivot_cols == pivots, (N, kind)
            seen[kind] += 1
            seen["full" if rk == m.cols else "deficient"] += 1
        assert all(seen.values()), (N, seen)


def test_eliminations_leave_their_inputs_unchanged():
    """from_spanning and nullspace only read their arguments."""
    rng = random.Random(13)
    for N in (2, 3, 5):
        for _ in range(10):
            ambient = rng.randint(2, 6)
            vectors = [sparse(v) for v in _random_vectors(rng, N, ambient, rng.randint(1, 4))]
            snapshot = [list(v.items()) for v in vectors]
            Subspace.from_spanning(vectors, ambient, N)
            assert [list(v.items()) for v in vectors] == snapshot
            m = _random_matrix(rng, N, rng.randint(1, 6), ambient, rng.randint(1, 3))
            entries = dict(m.entries)
            nullspace(m)
            assert m.entries == entries


def test_hash_agrees_with_equality_under_key_order():
    """Two subspaces whose rows differ only in key order are equal and hash alike."""
    N = 3
    one, xi = Scalar.one(N), zeta_power(N, 1)
    s = Subspace(4, N, ({0: one, 1: xi, 3: one}, {2: one, 3: xi}), (0, 2))
    t = Subspace(4, N, ({3: one, 0: one, 1: xi}, {3: xi, 2: one}), (0, 2))
    assert s == t
    assert hash(s) == hash(t)
    assert len({s, t}) == 1


def _trial_division_prime(n):
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_modulus_is_a_prime_with_a_primitive_root_of_unity_for_every_order():
    """The first primes of the sequence: each the least prime = 1 (mod N) above the one before."""
    for N in range(2, MAX_ORDER + 1):
        floor = 2 ** 31
        for index in range(3):
            p, w = linalg._modulus(N, index)
            assert floor < p < 2 ** 32, (N, index)
            assert _trial_division_prime(p), (N, index)
            assert p % N == 1, (N, index)
            assert pow(w, N, p) == 1, (N, index)
            for f in range(2, N + 1):
                if N % f == 0 and _trial_division_prime(f):
                    assert pow(w, N // f, p) != 1, (N, index, f)
            assert linalg._prime_root(N, floor) == (p, w)
            floor = p


def test_a_rank_the_first_prime_drops_is_certified_by_the_next(monkeypatch):
    """Minors that vanish modulo the first prime p, and ranks that differ between primes.

    det [[1, 1], [1, 1 - p]] = -p, and zeta - w (w the image of zeta)
    has a norm divisible by p: both drop a rank modulo p and are certified
    only after the second prime; the second needs the norm's power
    phi(N).  Under the least primes p1 < p2, the rows e0 + e2, p2 e1,
    e0 + e2 have rank 2 modulo p1 and 1 modulo p2, and the larger rank is
    kept.
    """
    from conftest import least_modulus

    used = []

    def recorded(N, index, modulus=linalg._modulus):
        used.append(index)
        return modulus(N, index)

    monkeypatch.setattr(linalg, "_modulus", recorded)
    for N in range(2, 7):
        p, w = linalg._modulus(N, 0)
        one = (1,) + (0,) * (euler_phi(N) - 1)
        zeta_minus_w = tuple(a - w * b for a, b in zip(integer_powers(N)[1], one))
        for rows, rank in (([{0: one, 1: one}, {0: one, 1: (1 - p,) + one[1:]}], 2),
                           ([{0: zeta_minus_w}], 1)):
            assert rank_mod(rows, p, w) == rank - 1, (N, rows)
            used.clear()
            assert certified_rank(rows, N) == rank, (N, rows)
            assert used == [0, 1], (N, rows, used)

    monkeypatch.setattr(linalg, "_modulus", least_modulus)
    for N in range(2, 7):
        (p1, w1), (p2, w2) = least_modulus(N, 0), least_modulus(N, 1)
        one = (1,) + (0,) * (euler_phi(N) - 1)
        rows = [{0: one, 2: one}, {1: (p2,) + one[1:]}, {0: one, 2: one}]
        assert (rank_mod(rows, p1, w1), rank_mod(rows, p2, w2)) == (2, 1)
        assert certified_rank(rows, N) == 2, N


def test_rank_mod_never_exceeds_the_exact_rank(monkeypatch):
    """Seeded Z[zeta_N] matrices, under the real primes and the least ones.

    Every F_p rank is at most the rank of the reference elimination, and
    the certified rank equals it.
    """
    from conftest import least_modulus

    seen = {"equal full": 0, "equal deficient": 0, "below": 0, "several primes": 0}
    primes = []
    true_rank_mod = linalg.rank_mod

    def counted(rows, p, w):
        primes.append(p)
        return true_rank_mod(rows, p, w)

    monkeypatch.setattr(linalg, "rank_mod", counted)
    for least in (False, True):
        if least:
            monkeypatch.setattr(linalg, "_modulus", least_modulus)
        rng = random.Random(31)
        for N in (2, 3, 4, 5, 6):
            for _ in range(30):
                cols = rng.randint(1, 7)
                rows = rng.randint(1, 9)
                m = _random_matrix(rng, N, rows, cols, rng.randint(1, min(rows, cols) + 1))
                rows_of = _int_rows(m)
                _, exact, _ = _rref(m)
                snapshot = [dict(row) for row in rows_of]
                p, w = linalg._modulus(N, 0)
                bound = true_rank_mod(rows_of, p, w)
                assert bound <= exact, (least, N, rows_of)
                if bound < exact:
                    seen["below"] += 1
                else:
                    seen["equal full" if exact == min(rows, cols) else "equal deficient"] += 1
                primes.clear()
                assert certified_rank(rows_of, N) == exact, (least, N, rows_of)
                assert rows_of == snapshot  # only read
                seen["several primes"] += len(primes) > 1
    assert all(seen.values()), seen


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
        s1 = Subspace.from_spanning(map(sparse, vecs), ambient, N)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        # throw in sums of pairs; the span is unchanged
        if len(shuffled) >= 2:
            shuffled.append(tuple(a + b for a, b in zip(shuffled[0], shuffled[1])))
        s2 = Subspace.from_spanning(map(sparse, shuffled), ambient, N)
        assert s1 == s2
        assert s1.basis == s2.basis
        assert hash(s1) == hash(s2)


def test_in_span():
    N = 3
    one, z = Scalar.one(N), Scalar.zero(N)
    s = Subspace.from_spanning([sparse((one, one, z))], 3, N)
    assert s.contains(sparse((z, z, z)))
    assert s.contains(s.basis[0])
    assert not s.contains(sparse((one, z, z)))


def test_a_column_outside_the_ambient_space_is_refused():
    """from_spanning, reduce and contains raise AmbientMismatch for a column outside [0, ambient)."""
    N = 3
    one = Scalar.one(N)
    for column in (-1, 3, 7):
        with pytest.raises(AmbientMismatch):
            Subspace.from_spanning([{0: one}, {column: one}], 3, N)
        with pytest.raises(AmbientMismatch):
            Subspace.full_space(3, N).reduce({column: one})
        with pytest.raises(AmbientMismatch):
            Subspace.full_space(3, N).contains({column: one})
    (row,) = Subspace.from_spanning([{2: one, 0: one}], 3, N).basis
    assert list(row.items()) == [(0, one), (2, one)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), N=st.sampled_from((2, 3, 4)))
def test_span_membership_closed_under_combination(data, N):
    ambient = data.draw(st.integers(2, 5))
    coeff = st.integers(-3, 3)
    vecs = data.draw(st.lists(
        st.tuples(*[coeff] * ambient), min_size=1, max_size=3))
    scalars = [tuple(Scalar.from_rational(N, c) for c in v) for v in vecs]
    s = Subspace.from_spanning(map(sparse, scalars), ambient, N)
    weights = data.draw(st.lists(coeff, min_size=len(vecs), max_size=len(vecs)))
    combo = [Scalar.zero(N)] * ambient
    for w, vec in zip(weights, scalars):
        combo = [a + Scalar.from_rational(N, w) * b for a, b in zip(combo, vec)]
    assert s.contains(sparse(combo))

