"""Exact linear algebra over Q(zeta_N): ranks, nullspaces, spans and membership.

Matrices are sparse maps (row, col) -> Scalar.  There is one exact
elimination, ``_rref``: ``_forward`` takes the rows one at a time, keeps
only the pivot rows and stops at full column rank, then one
back-substitution among the pivot rows gives the reduced row echelon
form, which is unique whatever order the pivots are found in.
Subspaces are stored as RREF bases of sparse rows, each a dict of its
nonzero entries with keys in ascending column order, so two subspaces
are equal iff their stored rows are identical.  Where an elimination
already yields canonical rows, the basis is read off it and not reduced
again, as in ``omega._kernel_within`` (proof in its docstring).

``certified_rank`` ranks rows over the ring of integers Z[zeta_N], each
entry a tuple of phi(N) ints in the power basis, with no arithmetic in
Q(zeta_N).  It takes ranks over F_p at successive primes p = 1 (mod N)
above 2^31 (``_modulus``), sending zeta to an element w of order
exactly N.  Then Phi_N(w) = 0 in F_p, and a -> a(w) is the reduction
modulo the prime ideal (p, zeta - w) of norm p.

* A lower bound.  Reduction commutes with determinants, so a nonzero
  minor over F_p is the image of a nonzero minor: each F_p rank is at
  most the rank, and so is the largest one seen, r.
* The certificate.  Let t = r + 1 and s_i = sum_j ||a_ij||_1^2 for row
  i, with ||a||_1 the sum of the absolute values of a's phi(N)
  coefficients.  Take any t x t minor M.  It vanishes modulo every
  prime ideal used, so the product of the primes divides Norm(M), the
  product of M's phi(N) complex embeddings.  Each embedding sends an
  entry a to a complex number of modulus at most ||a||_1, so by
  Hadamard's inequality each embedded M has modulus at most the product
  of sqrt(s_i) over its rows, and |Norm(M)| <= (prod of the t largest
  s_i)^(phi(N)/2).  Once (prod p)^2 exceeds (prod of the t largest
  s_i)^phi(N), the integer Norm(M) is a multiple of a larger integer,
  so it is 0 and M = 0.  Every t-minor vanishes and the rank is r.  The
  comparison is exact, in integers.
* Where t exceeds the number of nonzero rows or of nonzero columns no
  t-minor exists, and r is the rank at once.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclotomic import Scalar, euler_phi

Row = dict[int, Scalar]
IntRow = dict[int, tuple[int, ...]]  # entries of Z[zeta_N], phi(N) ints in the power basis


class AmbientMismatch(ValueError):
    """A vector with a column outside the ambient space of its subspace."""


class NotASubspace(ValueError):
    """Boundaries that escape the cycles, so the homology quotient is undefined."""


class InvariantViolation(RuntimeError):
    """An internal invariant of the computation failed.

    Raised explicitly rather than through ``assert`` so that the check
    still runs under ``python -O``.
    """


class Matrix:
    """Sparse exact matrix; absent entries are zero, stored entries are not."""

    __slots__ = ("rows", "cols", "order", "entries")

    def __init__(self, rows: int, cols: int, order: int, entries: dict[tuple[int, int], Scalar]):
        self.rows = rows
        self.cols = cols
        self.order = order
        self.entries = {k: v for k, v in entries.items() if v}

    @classmethod
    def from_row_dicts(cls, row_dicts: list[Row], cols: int, order: int) -> "Matrix":
        entries = {}
        for r, row in enumerate(row_dicts):
            for c, v in row.items():
                if v:
                    entries[(r, c)] = v
        return cls(len(row_dicts), cols, order, entries)

    def row_dicts(self) -> list[Row]:
        out: list[Row] = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out


def _sub_scaled(target: Row, source: Row, factor: Scalar) -> None:
    """target -= factor * source in place, dropping exact zeros."""
    for c, v in source.items():
        w = target.get(c)
        nv = (w - factor * v) if w is not None else -(factor * v)
        if nv:
            target[c] = nv
        else:
            target.pop(c, None)


def _forward(rows, full: int) -> dict[int, Row]:
    """Forward elimination; returns the pivot rows keyed by leading column.

    Rows are taken one at a time and reduced against the pivot rows kept
    so far, each normalised to 1 at its leading column; a nonzero
    residual becomes a new pivot row.  Only the pivot rows stay alive, so
    the rows may come from a generator.  An input row is reduced in
    place, so pass rows the caller no longer needs.  The pass stops once
    it holds ``full`` pivots: with one pivot per column every later row
    reduces to zero.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = row[c].inverse()
                pivots[c] = {k: v * inv for k, v in row.items()}
                break
            _sub_scaled(row, pivot, row[c])
        if len(pivots) == full:
            break
    return pivots


def _rref(rows, cols: int) -> tuple[list[Row], list[int]]:
    """The nonzero RREF rows of rows with ``cols`` columns, in pivot order, and their pivots.

    ``_forward``, then back-substitution among its pivot rows, last pivot
    first; a pivot row has no entry left of its pivot.  Each row comes
    back with ascending keys.  The input rows are reduced in place.
    """
    pivots = _forward(rows, cols)
    lead = sorted(pivots)
    if lead == list(range(cols)):  # a pivot in every column: the unit rows
        return [{c: pivots[c][c]} for c in lead], lead
    for i in reversed(range(len(lead))):
        below = pivots[lead[i]]
        for c in lead[:i]:
            row = pivots[c]
            f = row.get(lead[i])
            if f:
                _sub_scaled(row, below, f)
    return [dict(sorted(pivots[c].items())) for c in lead], lead


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, exact for n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_root(order: int, floor: int) -> tuple[int, int]:
    """The least prime p > floor with p = 1 (mod order), and an element of F_p of that order.

    The element is g^((p-1)/order) for the least g >= 2 whose power has no
    smaller order, that is, whose (order/f)-th power is not 1 for any
    prime f dividing the order.
    """
    p = floor - floor % order + 1
    while p <= floor or not _is_prime(p):
        p += order
    factors = [f for f in range(2, order + 1) if order % f == 0 and _is_prime(f)]
    g = 2
    while True:
        w = pow(g, (p - 1) // order, p)
        if all(pow(w, order // f, p) != 1 for f in factors):
            return p, w
        g += 1


@lru_cache(maxsize=None)
def _modulus(order: int, index: int) -> tuple[int, int]:
    """The index-th prime above 2^31 with p = 1 (mod order), from 0, and the image of zeta."""
    floor = 2 ** 31 if index == 0 else _modulus(order, index - 1)[0]
    return _prime_root(order, floor)


def rank_mod(rows: list[IntRow], p: int, w: int) -> int:
    """Rank over F_p of Z[zeta] rows, with zeta -> w; the rows are only read."""
    images: dict[tuple[int, ...], int] = {}
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        residue: dict[int, int] = {}
        for c, a in row.items():
            v = images.get(a)
            if v is None:
                v = images[a] = sum(x * pow(w, k, p) for k, x in enumerate(a) if x) % p
            if v:
                residue[c] = v
        while residue:
            c = min(residue)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(residue[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in residue.items()}
                break
            f = residue[c]
            for k, v in pivot.items():
                nv = (residue.get(k, 0) - f * v) % p
                if nv:
                    residue[k] = nv
                else:
                    del residue[k]
    return len(pivots)


def certified_rank(rows: list[IntRow], order: int) -> int:
    """Rank over Q(zeta_order) of Z[zeta_order] rows, certified (see the module docstring).

    F_p ranks at successive primes, until the largest one r has no
    (r+1)-minor left or the product of the primes outgrows the norm bound
    of every (r+1)-minor.  The rows are only read.
    """
    rows = [row for row in rows if row]
    cols = len({c for row in rows for c in row})
    weights = sorted((sum(sum(map(abs, a)) ** 2 for a in row.values()) for row in rows),
                     reverse=True)
    phi = euler_phi(order)
    rank, primes, index = 0, 1, 0
    while True:
        p, w = _modulus(order, index)
        rank = max(rank, rank_mod(rows, p, w))
        primes *= p
        index += 1
        t = rank + 1
        if t > min(len(rows), cols) or primes ** 2 > math.prod(weights[:t]) ** phi:
            return rank


class Subspace:
    """A subspace of Q(zeta_N)^ambient_dim with its canonical RREF basis.

    Each basis row is a sparse ``Row``: a dict of its nonzero entries,
    keys in ascending column order.  Row i is 1 at ``pivot_cols[i]`` and 0
    at every other pivot column, and ``pivot_cols`` strictly increases.
    Vectors passed in are rows of the same form, except that their keys
    may come in any order and zero values are dropped; a column outside
    [0, ambient_dim) raises ``AmbientMismatch``.
    """

    __slots__ = ("ambient_dim", "order", "basis", "pivot_cols")

    def __init__(self, ambient_dim: int, order: int, basis: tuple[Row, ...],
                 pivot_cols: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.order = order
        self.basis = basis
        self.pivot_cols = pivot_cols

    @classmethod
    def from_spanning(cls, vectors, ambient_dim: int, order: int) -> "Subspace":
        basis, pivots = _rref([_checked(v, ambient_dim) for v in vectors], ambient_dim)
        return cls(ambient_dim, order, tuple(basis), tuple(pivots))

    @classmethod
    def full_space(cls, ambient_dim: int, order: int) -> "Subspace":
        one = Scalar.one(order)
        return cls(ambient_dim, order, tuple({i: one} for i in range(ambient_dim)),
                   tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vector: Row) -> Row:
        """Residual of vector after reduction against the basis."""
        residual = _checked(vector, self.ambient_dim)
        for row, p in zip(self.basis, self.pivot_cols):
            f = residual.get(p)
            if f is not None:
                _sub_scaled(residual, row, f)
        return residual

    def contains(self, vector: Row) -> bool:
        return not self.reduce(vector)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.order == other.order
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        rows = tuple(frozenset(row.items()) for row in self.basis)  # __eq__ ignores key order
        return hash((self.ambient_dim, self.order, rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, N={self.order})"


def _checked(vector: Row, ambient_dim: int) -> Row:
    """A copy of vector without its zero values; raises where a column leaves the ambient space."""
    row = {c: s for c, s in vector.items() if s}
    if row and (min(row) < 0 or max(row) >= ambient_dim):
        raise AmbientMismatch(f"vector has a column outside [0, {ambient_dim})")
    return row


def nullspace(m: Matrix) -> Subspace:
    """Canonical basis of {x : m x = 0}; dim = cols - rank (checked).

    The RREF of the rows (``_rref``, which stops at full column rank),
    then the vectors of its free columns brought to the canonical basis.
    """
    rows, lead = _rref(m.row_dicts(), m.cols)
    free = sorted(set(range(m.cols)).difference(lead))
    one = Scalar.one(m.order)
    vectors = []
    for f in free:
        vec = {f: one}
        for row, p in zip(rows, lead):
            coef = row.get(f)
            if coef:
                vec[p] = -coef
        vectors.append(vec)
    space = Subspace.from_spanning(vectors, m.cols, m.order)
    if space.dim + len(lead) != m.cols:
        raise InvariantViolation("rank-nullity violated")
    return space
