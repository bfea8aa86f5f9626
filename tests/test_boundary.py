import itertools
from fractions import Fraction

import pytest

from mayerpath.boundary import (
    kapranov_expansion_check,
    nonregular_power,
    regular_power,
    verify_nilpotency,
)
from mayerpath.complexes import parse_digraph, path_complex_from_digraph
from mayerpath.cyclotomic import Scalar, q_factorial, zeta_power
from mayerpath.fixtures import load_fixture


def power_chain(p, q, N):
    """d^q of one path from ``regular_power``, with its int coefficients read in Q(zeta_N)."""
    return {f: Scalar(N, tuple(Fraction(a) for a in t))
            for f, t in regular_power(p, q, N).items()}


def test_boundary_of_triangle_path():
    for N in (2, 3, 4, 7):
        ch = power_chain((0, 1, 2), 1, N)
        assert ch == {
            (1, 2): zeta_power(N, 0),
            (0, 2): zeta_power(N, 1),
            (0, 1): zeta_power(N, 2),
        }


def test_boundary_drops_irregular_faces():
    for N in (2, 3, 5):
        ch = power_chain((0, 1, 0), 1, N)
        assert ch == {(1, 0): zeta_power(N, 0), (0, 1): zeta_power(N, 2)}


def test_boundary_of_vertices_is_zero():
    assert power_chain((3,), 1, 3) == {}


def test_boundary_of_four_path_wraps_exponent():
    ch = power_chain((0, 1, 2, 3), 1, 3)
    assert ch[(0, 1, 2)] == zeta_power(3, 3)  # == 1
    assert ch[(0, 1, 2)] == Scalar.one(3)


def test_diamond_second_power_hits_shortcut_row(diamond):
    assert not diamond.is_allowed((0, 3))  # e_{1,4} is not allowed
    val = power_chain(diamond.paths(3)[0], 2, 3)[(0, 3)]
    assert val == zeta_power(3, 2) + zeta_power(3, 3)
    assert val == -zeta_power(3, 1)


def test_ffl_second_power_vertex_chain():
    P = load_fixture("ffl")
    assert (0, 1, 2) in P.paths(2)
    xi = zeta_power(3, 1)
    expected = {
        (0,): -xi,
        (1,): -Scalar.one(3),
        (2,): -(xi * xi),
    }
    assert power_chain((0, 1, 2), 2, 3) == expected


def test_power_matrix_equals_iterated_single_steps(diamond):
    # each column of d^2 against the single step applied to each face of the single step
    for p in diamond.paths(3):
        product = {}
        for mid, v1 in power_chain(p, 1, 3).items():
            for f, v0 in power_chain(mid, 1, 3).items():
                product[f] = product.get(f, Scalar.zero(3)) + v0 * v1
        product = {f: v for f, v in product.items() if v}
        assert product == power_chain(p, 2, 3)


def test_column_support_only_deletion_reachable(diamond):
    source = diamond.paths(3)[0]
    reachable = set()
    for i, j in itertools.combinations(range(len(source)), 2):
        f = tuple(v for t, v in enumerate(source) if t not in (i, j))
        reachable.add(f)
    for p in diamond.paths(3):
        assert set(regular_power(p, 2, 3)) <= reachable


def test_power_beyond_dimension_is_zero_matrix(diamond):
    assert diamond.paths(1)
    assert not any(regular_power(p, 3, 3) for p in diamond.paths(1))


def test_nilpotency_on_fixture_examples(diamond, torus):
    assert verify_nilpotency(diamond, 3, 3)
    assert verify_nilpotency(torus, 3, 3)
    for name in ("diamond", "ffl", "loop4", "braid", "theta", "dumbbell"):
        assert verify_nilpotency(load_fixture(name), 2, 3), name


def test_nilpotency_fails_on_directed_cycles_beyond_order_two():
    # a closed walk like e_{1,2,3,1} defeats the N-th power on the full
    # regular span: its dropped irregular faces no longer cancel
    theta = load_fixture("theta")
    assert not verify_nilpotency(theta, 3, 3)
    tri = path_complex_from_digraph(parse_digraph("1 2\n2 3\n3 1"), 3)
    assert not verify_nilpotency(tri, 3, 3)
    assert verify_nilpotency(tri, 2, 3)


def test_free_module_nth_power_vanishes():
    # on the free module (irregular faces kept) the N-th power is zero
    for N in (2, 3, 4, 5):
        for p in itertools.product(range(2), repeat=4):
            assert not nonregular_power(p, N, N), (p, N)


def test_nonregular_boundary_keeps_irregular_faces():
    ch = nonregular_power((0, 1, 0), 1, 3)
    assert ch == {
        (1, 0): zeta_power(3, 0),
        (0, 0): zeta_power(3, 1),
        (0, 1): zeta_power(3, 2),
    }


@pytest.mark.parametrize("N", (2, 3, 4))
def test_kapranov_expansion(N):
    # every elementary path on up to 5 vertices over a 3-letter alphabet,
    # regular or not, for all powers within range
    for n_verts in (2, 3, 4, 5):
        for p in itertools.product(range(3), repeat=n_verts):
            for r in range(1, min(N, n_verts - 1) + 1):
                assert kapranov_expansion_check(p, r, N), (p, r, N)


def test_kapranov_expansion_trivial_power():
    assert kapranov_expansion_check((0, 1, 2), 1, 5)


def test_kapranov_brute_force_cross_check():
    # recompute both sides locally for one case: d^2 on a 3-vertex path at N=3
    N, p = 3, (0, 1, 2)
    lhs = nonregular_power(p, 2, N)
    rhs = {}
    for j1, j2 in itertools.combinations(range(3), 2):
        remaining = tuple(v for t, v in enumerate(p) if t not in (j1, j2))
        coeff = q_factorial(N, 2) * zeta_power(N, j1 + j2 - 1)
        rhs[remaining] = rhs.get(remaining, Scalar.zero(N)) + coeff
    rhs = {k: v for k, v in rhs.items() if v}
    assert lhs == rhs


def test_kapranov_exponent_shift_is_necessary():
    # without the r(r-1)/2 exponent correction the two sides differ by a
    # global root-of-unity factor whenever 0 < r < N
    N, p, r = 3, (0, 1, 2), 2
    lhs = nonregular_power(p, r, N)
    uncorrected = {}
    for subset in itertools.combinations(range(len(p)), r):
        remaining = tuple(v for t, v in enumerate(p) if t not in subset)
        coeff = q_factorial(N, r) * zeta_power(N, sum(subset))
        uncorrected[remaining] = uncorrected.get(remaining, Scalar.zero(N)) + coeff
    uncorrected = {k: v for k, v in uncorrected.items() if v}
    assert lhs != uncorrected
    scaled = {k: v * zeta_power(N, -1) for k, v in uncorrected.items()}
    assert lhs == scaled
