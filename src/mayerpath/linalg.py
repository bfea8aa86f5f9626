"""Exact linear algebra over Q(zeta_N): ranks, nullspaces, subspace lattice ops.

Matrices are sparse maps (row, col) -> Scalar.  ``rank`` and
``nullspace`` share one forward elimination that takes the rows one at a
time and keeps only the pivot rows; ``nullspace`` stops it at full column
rank and back-substitutes among the pivot rows only when a free column
is left.  ``Subspace.from_spanning`` and ``intersect`` run
Gauss-Jordan with a fixed pivot rule (first row with a nonzero entry,
scanning columns left to right).  The RREF of a row space is unique, so
every emitted basis is reproducible.  Subspaces are stored as reduced
row echelon bases, which makes the representation canonical: two
subspaces are equal iff their stored rows are identical.
"""

from __future__ import annotations

from .cyclotomic import Scalar

Row = dict[int, Scalar]


class AmbientMismatch(ValueError):
    """Subspaces of different ambient dimensions or field orders."""


class NotASubspace(ValueError):
    """Quotient requested by a space that is not contained in the numerator."""


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


def _reduce_rows(rows: list[Row], cols: int) -> tuple[list[Row], list[int]]:
    """In-place style Gauss-Jordan; returns (rows, pivot columns).

    Pivot rule: for each column in ascending order, the first remaining
    row with a nonzero entry there.  Pivot entries are normalised to 1
    and cleared above and below, so surviving rows form an RREF basis.
    """
    rows = [dict(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, len(rows)):
            if c in rows[i]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = {k: v * inv for k, v in rows[r].items()}
        for i in range(len(rows)):
            if i != r and c in rows[i]:
                _sub_scaled(rows[i], rows[r], rows[i][c])
        pivots.append(c)
        r += 1
    return rows, pivots


def _forward(rows, full: int | None = None) -> dict[int, Row]:
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


def rank(rows) -> int:
    """Rank of an iterable of sparse rows, by forward elimination.

    The rows are consumed as in ``_forward``: one at a time, each reduced
    in place.
    """
    return len(_forward(rows))


class Subspace:
    """A subspace of Scalar^ambient_dim with its canonical RREF basis."""

    __slots__ = ("ambient_dim", "order", "basis", "pivot_cols")

    def __init__(self, ambient_dim: int, order: int, basis: tuple[tuple[Scalar, ...], ...],
                 pivot_cols: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.order = order
        self.basis = basis
        self.pivot_cols = pivot_cols

    @classmethod
    def from_spanning(cls, vectors, ambient_dim: int, order: int) -> "Subspace":
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch("spanning vector has wrong length")
            rows.append({i: s for i, s in enumerate(v) if s})
        reduced, pivots = _reduce_rows(rows, ambient_dim)
        zero = Scalar.zero(order)
        basis = tuple(
            tuple(row.get(j, zero) for j in range(ambient_dim))
            for row in reduced[: len(pivots)]
        )
        return cls(ambient_dim, order, basis, tuple(pivots))

    @classmethod
    def zero_space(cls, ambient_dim: int, order: int) -> "Subspace":
        return cls(ambient_dim, order, (), ())

    @classmethod
    def full_space(cls, ambient_dim: int, order: int) -> "Subspace":
        one, zero = Scalar.one(order), Scalar.zero(order)
        basis = tuple(
            tuple(one if i == j else zero for j in range(ambient_dim))
            for i in range(ambient_dim)
        )
        return cls(ambient_dim, order, basis, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim or self.order != other.order:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def reduce(self, vector) -> list[Scalar]:
        """Residual of vector after reduction against the basis."""
        if len(vector) != self.ambient_dim:
            raise AmbientMismatch("vector has wrong length")
        residual = list(vector)
        for row, p in zip(self.basis, self.pivot_cols):
            f = residual[p]
            if f:
                for j in range(self.ambient_dim):
                    if row[j]:
                        residual[j] = residual[j] - f * row[j]
        return residual

    def contains(self, vector) -> bool:
        return not any(self.reduce(vector))

    def contains_space(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains(row) for row in other.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.order == other.order
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.order, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, N={self.order})"


def nullspace(m: Matrix) -> Subspace:
    """Canonical basis of {x : m x = 0}; dim = cols - rank (checked).

    One forward elimination of the rows, which stops at full column rank
    (the zero space).  Otherwise back-substitution among the pivot rows
    gives the RREF, and the vectors of its free columns are brought to
    the canonical basis.
    """
    pivots = _forward(m.row_dicts(), m.cols)
    rk = len(pivots)
    free = [c for c in range(m.cols) if c not in pivots]
    if not free:
        space = Subspace.zero_space(m.cols, m.order)
    else:
        lead = sorted(pivots)
        for i in reversed(range(rk)):
            below = pivots[lead[i]]
            for c in lead[:i]:
                row = pivots[c]
                f = row.get(lead[i])
                if f:
                    _sub_scaled(row, below, f)
        zero, one = Scalar.zero(m.order), Scalar.one(m.order)
        vectors = []
        for f in free:
            vec = [zero] * m.cols
            vec[f] = one
            for p in lead:
                coef = pivots[p].get(f)
                if coef:
                    vec[p] = -coef
            vectors.append(tuple(vec))
        space = Subspace.from_spanning(vectors, m.cols, m.order)
    if space.dim + rk != m.cols:
        raise InvariantViolation("rank-nullity violated")
    return space


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus block construction."""
    a._check(b)
    amb = a.ambient_dim
    rows: list[Row] = []
    for vec in a.basis:
        row = {i: s for i, s in enumerate(vec) if s}
        row.update({i + amb: s for i, s in enumerate(vec) if s})
        rows.append(row)
    for vec in b.basis:
        rows.append({i: s for i, s in enumerate(vec) if s})
    reduced, pivots = _reduce_rows(rows, 2 * amb)
    zero = Scalar.zero(a.order)
    vectors = []
    for row in reduced[: len(pivots)]:
        if all(c >= amb for c in row):
            vectors.append(tuple(row.get(j + amb, zero) for j in range(amb)))
    return Subspace.from_spanning(vectors, amb, a.order)


def quotient_dim(z: Subspace, b: Subspace) -> int:
    """dim(z/b), asserting b is actually contained in z."""
    z._check(b)
    for row in b.basis:
        if not z.contains(row):
            raise NotASubspace(
                "denominator space is not contained in the numerator; "
                "the chain-complex invariant d^q d^(N-q) = 0 failed upstream"
            )
    return z.dim - b.dim
