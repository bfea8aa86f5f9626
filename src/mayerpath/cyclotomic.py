"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are represented as polynomials in Q[x] reduced modulo the N-th
cyclotomic polynomial Phi_N, so every value is an exact vector of
``euler_phi(N)`` rationals.  Nothing here is approximate: equality with
zero is decidable, which is what rank computations downstream rely on.

Every power of zeta becomes coefficients here, through one table of
x^k mod Phi_N (``integer_powers``), and no other module reads it:

* ``rotate`` multiplies a coefficient tuple, of ints or of Fractions, by
  a unit +-zeta^k, moving each coefficient up k places and reducing the
  places at or above phi(N); the result has the input's number type;
* ``Scalar.times_unit`` is that rotation of a ``Scalar``, with neither a
  general product nor an inverse;
* ``unit_exponent`` finds (k, sign) with c = sign * zeta^k, or None;
* ``power_sum`` adds up sum_n w_n zeta^n for integer weights as phi(N)
  ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

_F0 = Fraction(0)
_F1 = Fraction(1)


class OrderMismatch(ValueError):
    """Raised when scalars of different root-of-unity orders are combined."""


class DivisionByZero(ZeroDivisionError):
    """Raised when inverting the zero scalar."""


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree.

    Computed by dividing x^n - 1 by Phi_d for each proper divisor d of n
    (``_poly_divmod``); every division is exact and the quotient integral,
    or ``ArithmeticError`` is raised.  Total for every n >= 1.
    """
    if n < 1:
        raise ValueError("cyclotomic_polynomial requires n >= 1")
    if n == 1:
        return (-1, 1)
    num = [_F0] * (n + 1)
    num[0], num[n] = -_F1, _F1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, [Fraction(c) for c in cyclotomic_polynomial(d)])
            if any(rem):
                raise ArithmeticError("cyclotomic division left a remainder")
    if any(c.denominator != 1 for c in num):
        raise ArithmeticError("cyclotomic quotient is not integral")
    return tuple(int(c) for c in num)


@lru_cache(maxsize=None)
def integer_powers(order: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_order as phi(order) integers, for k = 0 .. max(2*phi-2, order+phi-1).

    Phi_order is monic, so every remainder is integral.  Row i + j is
    zeta^i * zeta^j, so multiplying an element of Z[zeta_order] by zeta^j,
    0 <= j < order, needs only rows j .. j+phi-1.
    """
    phi = euler_phi(order)
    # x^phi = -(mod[0] + mod[1] x + ... + mod[phi-1] x^{phi-1}).
    top = [-c for c in cyclotomic_polynomial(order)[:phi]]
    table: list[tuple[int, ...]] = []
    for k in range(max(2 * phi - 1, order + phi)):
        if k < phi:
            row = [0] * phi
            row[k] = 1
        else:
            prev = table[k - 1]
            row = [0] + list(prev[: phi - 1])
            carry = prev[phi - 1]
            if carry:
                row = [s + carry * t for s, t in zip(row, top)]
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=None)
def _power_terms(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rows of ``integer_powers`` as (place, integer) terms, nonzero ones only."""
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in integer_powers(order))


def rotate(coeffs: tuple, k: int, order: int, sign: int = 1) -> tuple:
    """sign * zeta^k times the element with these coefficients, in the same number type.

    Coefficient i moves to row i + k of ``integer_powers``, 0 <= k < order
    after reduction, so ints stay ints and Fractions stay Fractions, the
    places no term reaches included.
    """
    k %= order
    if not k and sign == 1:
        return tuple(coeffs)
    terms = _power_terms(order)
    out = [_F0 if isinstance(coeffs[0], Fraction) else 0] * len(coeffs)
    for i, a in enumerate(coeffs):
        if not a:
            continue
        if sign < 0:
            a = -a
        for t, m in terms[i + k]:
            if m == 1:
                out[t] += a
            elif m == -1:
                out[t] -= a
            else:               # Phi_N has a coefficient beyond +-1 first at N = 105
                out[t] += m * a
    return tuple(out)


def power_sum(order: int, weights) -> tuple[int, ...]:
    """sum_n weights[n] * zeta^n for integer weights, as phi(order) ints."""
    powers = integer_powers(order)
    acc = [0] * len(powers[0])
    for n, w in enumerate(weights):
        if w:
            for i, c in enumerate(powers[n % order]):
                acc[i] += w * c
    return tuple(acc)


@lru_cache(maxsize=None)
def _power_table(order: int) -> tuple[tuple[Fraction, ...], ...]:
    """``integer_powers`` as Fractions, the reduction table of ``Scalar`` products."""
    return tuple(tuple(Fraction(c) for c in row) for row in integer_powers(order))


class Scalar:
    """An element of Q(zeta_N), canonical as a length-phi(N) coefficient tuple."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        self.order = order
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Scalar":
        return _zero(order)

    @staticmethod
    def one(order: int) -> "Scalar":
        return _one(order)

    @staticmethod
    def from_rational(order: int, value) -> "Scalar":
        phi = euler_phi(order)
        coeffs = (Fraction(value),) + (_F0,) * (phi - 1)
        return Scalar(order, coeffs)

    # -- ring/field structure ------------------------------------------

    def _check(self, other: "Scalar") -> None:
        if self.order != other.order:
            raise OrderMismatch(
                f"cannot combine Q(zeta_{self.order}) with Q(zeta_{other.order})"
            )

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Scalar":
        return Scalar(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Scalar(self.order, tuple(a * f for a in self.coeffs))
        self._check(other)
        a, b = self.coeffs, other.coeffs
        phi = len(a)
        conv = [_F0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        table = _power_table(self.order)
        out = [_F0] * phi
        for k, ck in enumerate(conv):
            if ck:
                row = table[k]
                for i in range(phi):
                    if row[i]:
                        out[i] += ck * row[i]
        return Scalar(self.order, tuple(out))

    __rmul__ = __mul__

    def times_unit(self, k: int, sign: int = 1) -> "Scalar":
        """sign * zeta^k * self, as a rotation of the coefficients (see ``rotate``)."""
        return Scalar(self.order, rotate(self.coeffs, k, self.order, sign))

    def inverse(self) -> "Scalar":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if not self:
            raise DivisionByZero("scalar is zero")
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = mod, _trim(list(self.coeffs))
        s0, s1 = [_F0], [_F1]
        while _degree(r1) > 0:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if _degree(r1) < 0:
            raise DivisionByZero("scalar not invertible (zero divisor?)")
        c = r1[0]
        inv = [s / c for s in s1]
        phi = euler_phi(self.order)
        inv = (inv + [_F0] * phi)[:phi]
        return Scalar(self.order, tuple(inv))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    # -- comparisons & rendering ---------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"Scalar({self.order}, {self.render()})"

    def render(self) -> str:
        """Human-readable polynomial in z = zeta_N, e.g. ``1 - 2/3*z``."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = c if c > 0 else -c
            if i == 0:
                term = str(mag)
            else:
                var = "z" if i == 1 else f"z^{i}"
                term = var if mag == 1 else f"{mag}*{var}"
            parts.append(("-" if c < 0 else "+", term))
        if not parts:
            return "0"
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text

    def to_json(self) -> list[str]:
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]


@lru_cache(maxsize=None)
def _zero(order: int) -> Scalar:
    return Scalar(order, (_F0,) * euler_phi(order))


@lru_cache(maxsize=None)
def _one(order: int) -> Scalar:
    phi = euler_phi(order)
    return Scalar(order, (_F1,) + (_F0,) * (phi - 1))


@lru_cache(maxsize=None)
def _zeta_cache(order: int, k: int) -> Scalar:
    return Scalar(order, _power_table(order)[k])


def zeta_power(order: int, k: int) -> Scalar:
    """zeta_N^k in canonical form, for any integer exponent."""
    if order < 2:
        raise ValueError("root-of-unity order must be >= 2")
    return _zeta_cache(order, k % order)


@lru_cache(maxsize=None)
def _units(order: int) -> dict[tuple, tuple[int, int]]:
    """Coefficients of each unit sign * zeta^k -> (k, sign); sign 1 where both exist."""
    one = _one(order).coeffs
    return {rotate(one, k, order, sign): (k, sign) for sign in (-1, 1) for k in range(order)}


def unit_exponent(c: Scalar) -> tuple[int, int] | None:
    """(k, sign) with c = sign * zeta^k, 0 <= k < order, or None when c is no such unit."""
    return _units(c.order).get(c.coeffs)


def q_integer(order: int, n: int) -> Scalar:
    """[n]_q = 1 + q + ... + q^{n-1} at q = zeta_N."""
    if order < 2:
        raise ValueError("root-of-unity order must be >= 2")
    return Scalar(order, tuple(Fraction(c) for c in power_sum(order, [1] * n)))


def q_factorial(order: int, n: int) -> Scalar:
    """[n!]_q = [1]_q [2]_q ... [n]_q at q = zeta_N."""
    total = _one(order)
    for i in range(1, n + 1):
        total = total * q_integer(order, i)
    return total


# -- polynomial helpers over Fraction (ascending coefficients) ----------


def _trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _degree(p: list[Fraction]) -> int:
    return -1 if (len(p) == 1 and not p[0]) else len(p) - 1


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else _F0) - (b[i] if i < len(b) else _F0) for i in range(n)]
    return _trim(out)


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    dd = _degree(den)
    if dd < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if _degree(num) < dd:
        return [_F0], _trim(num)
    quot = [_F0] * (len(num) - dd)
    lead = den[dd]
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd] / lead
        quot[k] = c
        if c:
            for i in range(dd + 1):
                num[k + i] -= c * den[i]
    return _trim(quot), _trim(num)
