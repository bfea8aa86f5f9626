import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mayerpath.cyclotomic import (
    DivisionByZero,
    OrderMismatch,
    Scalar,
    cyclotomic_polynomial,
    euler_phi,
    power_sum,
    q_factorial,
    q_integer,
    rotate,
    unit_exponent,
    zeta_power,
)

ORDERS = (2, 3, 4, 5, 6)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)          # x + 1
    assert cyclotomic_polynomial(3) == (1, 1, 1)       # x^2 + x + 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)       # x^2 + 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)      # x^2 - x + 1


def test_cyclotomic_polynomial_division_oracle():
    # divide x^6 - 1 by Phi_1 Phi_2 Phi_3 with a locally coded long division
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_divmod(num, den):
        num = list(num)
        quot = [0] * (len(num) - len(den) + 1)
        for k in range(len(num) - len(den), -1, -1):
            c = num[k + len(den) - 1] // den[-1]
            quot[k] = c
            for i, d in enumerate(den):
                num[k + i] -= c * d
        return quot, num

    denom = poly_mul(poly_mul([-1, 1], [1, 1]), [1, 1, 1])
    num = [-1, 0, 0, 0, 0, 0, 1]
    quot, rem = poly_divmod(num, denom)
    assert all(r == 0 for r in rem)
    assert tuple(quot) == cyclotomic_polynomial(6)


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in range(1, 31):
        expected = tuple(int(c) for c in reversed(
            sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()))
        assert cyclotomic_polynomial(n) == expected, n


def test_degree_matches_euler_phi():
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_zeta_identities():
    z3 = zeta_power(3, 1)
    assert z3 * z3 * z3 == Scalar.one(3)
    assert Scalar.one(3) + z3 + z3 * z3 == Scalar.zero(3)
    assert zeta_power(4, 1) * zeta_power(4, 1) == Scalar.from_rational(4, -1)
    assert zeta_power(3, 3) == Scalar.one(3)
    assert zeta_power(3, -1) == zeta_power(3, 2)
    assert zeta_power(2, 1) == Scalar.from_rational(2, -1)


def test_zeta_primitivity():
    for N in ORDERS:
        assert zeta_power(N, N) == Scalar.one(N)
        for k in range(1, N):
            assert zeta_power(N, k) != Scalar.one(N)


def test_zeta_powers_distinct():
    for N in ORDERS:
        powers = [zeta_power(N, k) for k in range(N)]
        assert len(set(powers)) == N


def test_inverse_examples():
    z = zeta_power(3, 1)
    assert z.inverse() == zeta_power(3, 2)
    one = Scalar.one(3)
    inv = (one - z).inverse()
    assert inv == Scalar.from_rational(3, Fraction(2, 3)) + Fraction(1, 3) * z
    assert (one - z) * inv == one
    assert one.inverse() == one
    with pytest.raises(DivisionByZero):
        Scalar.zero(3).inverse()


def test_order_mismatch():
    with pytest.raises(OrderMismatch):
        Scalar.one(3) + Scalar.one(4)


def test_q_integers_and_factorials():
    assert q_integer(3, 3) == Scalar.zero(3)
    assert q_factorial(3, 3) == Scalar.zero(3)
    assert q_integer(4, 2) == Scalar.one(4) + zeta_power(4, 1)
    for N in ORDERS:
        for n in range(1, N):
            assert q_factorial(N, n), (N, n)
        for n in range(N, N + 3):
            assert q_factorial(N, n) == Scalar.zero(N)


def _random_scalar(rng, N):
    phi = euler_phi(N)
    return Scalar(N, tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(phi)
    ))


@pytest.mark.parametrize("N", ORDERS)
def test_field_axioms_randomized(N):
    rng = random.Random(7000 + N)
    one = Scalar.one(N)
    for _ in range(1000):
        a, b, c = (_random_scalar(rng, N) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == one


@settings(max_examples=150, deadline=None)
@given(
    N=st.sampled_from(ORDERS),
    num=st.integers(-9, 9), den=st.integers(1, 9), k=st.integers(-12, 12),
)
def test_rational_times_zeta_roundtrip(N, num, den, k):
    r = Fraction(num, den)
    s = Scalar.from_rational(N, r) * zeta_power(N, k)
    if r == 0:
        assert not s
    else:
        assert s * zeta_power(N, -k) == Scalar.from_rational(N, r)


def test_canonical_form_is_stable():
    # reducing a reduced value changes nothing: multiply by 1 repeatedly
    s = zeta_power(5, 3) + Scalar.from_rational(5, Fraction(1, 3))
    again = s * Scalar.one(5)
    assert again == s and again.coeffs == s.coeffs


def test_render_and_json():
    z = zeta_power(3, 1)
    s = Scalar.from_rational(3, Fraction(-1, 2)) + z
    assert s.render() == "-1/2 + z"
    assert Scalar.zero(3).render() == "0"
    assert s.to_json() == ["-1/2", "1/1"]


def test_numeric_agreement_with_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = random.Random(11)
    for N in ORDERS:
        root = mp.e ** (2j * mp.pi / N)
        for _ in range(25):
            a = _random_scalar(rng, N)
            b = _random_scalar(rng, N)
            fa = sum(complex(c) * complex(root) ** i for i, c in enumerate(a.coeffs))
            fb = sum(complex(c) * complex(root) ** i for i, c in enumerate(b.coeffs))
            prod = a * b
            fp = sum(complex(c) * complex(root) ** i for i, c in enumerate(prod.coeffs))
            assert abs(fa * fb - fp) < 1e-9


def _sparse_random_scalar(rng, N):
    """A Q(zeta_N) element with small random rational coefficients, some of them zero."""
    phi = len(Scalar.zero(N).coeffs)
    return Scalar(N, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7
                           else Fraction(0) for _ in range(phi)))


def test_rotation_equals_the_product_with_the_unit():
    rng = random.Random(5)
    for N in range(2, 8):
        for _ in range(12):
            c = _sparse_random_scalar(rng, N)
            for j in range(-N, 2 * N):
                for sign in (1, -1):
                    assert c.times_unit(j, sign) == sign * c * zeta_power(N, j), (N, c, j)
    # Phi_105 is the first cyclotomic polynomial with a coefficient beyond +-1 (-2)
    c = _sparse_random_scalar(rng, 105)
    for j in (1, 47, 48, 60, 104):
        assert c.times_unit(j, -1) == -c * zeta_power(105, j), j


def test_unit_detection_is_exact_on_the_units():
    rng = random.Random(6)
    for N in range(2, 8):
        units = {sign * zeta_power(N, k) for k in range(N) for sign in (1, -1)}
        for u in units:
            k, sign = unit_exponent(u)
            assert 0 <= k < N and sign in (1, -1) and sign * zeta_power(N, k) == u
        # |zeta^i + zeta^j| = 1 exactly when i - j = +-N/3, as in 1 + zeta_3 = -zeta_3^2
        others = [zeta_power(N, i) + zeta_power(N, j) for i in range(N) for j in range(N)]
        assert any(c in units for c in others) == (N % 3 == 0)
        others += [Scalar.zero(N), 2 * Scalar.one(N), Fraction(1, 2) * zeta_power(N, 1)]
        others += [_sparse_random_scalar(rng, N) for _ in range(40)]
        for c in others:
            assert (unit_exponent(c) is not None) == (c in units), (N, c)


def test_rotate_on_int_tuples_equals_the_scalar_product():
    rng = random.Random(8)
    cases = [(N, (*range(-1, N + 1), 2 * N + 3), 10) for N in range(2, 8)]
    cases.append((105, (1, 47, 48, 60, 104), 2))     # Phi_105 has a coefficient -2
    for N, exponents, samples in cases:
        phi = euler_phi(N)
        for _ in range(samples):
            a = tuple(rng.randint(-5, 5) if rng.random() < 0.7 else 0 for _ in range(phi))
            for j in exponents:
                for sign in (1, -1):
                    got = rotate(a, j, N, sign)
                    want = sign * Scalar(N, tuple(map(Fraction, a))) * zeta_power(N, j)
                    assert got == want.coeffs and len(got) == phi, (N, a, j, sign)
                    assert all(type(v) is int for v in got), (N, a, j, sign)


def test_rotate_keeps_fraction_coefficients():
    rng = random.Random(9)
    for N in (*range(2, 8), 105):
        for c in (Scalar.zero(N), Scalar.one(N), _sparse_random_scalar(rng, N)):
            for j in (0, 1, N - 1, N + 2):
                for sign in (1, -1):
                    got = rotate(c.coeffs, j, N, sign)
                    assert all(type(v) is Fraction for v in got), (N, c, j, sign)
                    assert all(type(v) is Fraction for v in c.times_unit(j, sign).coeffs)


def test_power_sum_equals_the_sum_of_zeta_powers():
    rng = random.Random(10)
    for N in range(2, 8):
        for length in (0, 1, N, 2 * N + 1, 3 * N + 2):
            weights = [rng.randint(-6, 6) for _ in range(length)]
            want = Scalar.zero(N)
            for n, w in enumerate(weights):
                want = want + w * zeta_power(N, n)
            got = power_sum(N, weights)
            assert got == want.coeffs and all(type(v) is int for v in got), (N, weights)
