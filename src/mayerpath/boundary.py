"""The root-of-unity weighted boundary operator and its matrix powers.

The operator sends e_{i0...ip} to sum_j zeta^j e_{i0...î_j...ip}.  Two
variants matter:

* the regular operator drops faces with equal consecutive vertices from
  the image (this is the one all homology downstream uses), and
* the free (non-regular) operator keeps them; on the free module the
  N-th power vanishes identically because [N!]_q = 0.

Powers of the regular operator are computed by iterating it through the
full regular span, so intermediate irregular faces are dropped at every
step, not only at the end.  On invariant chains d^1 has one form,
``faces``: the faces of the allowed n-paths, enumerated once per
dimension for every N.  The non-allowed rows of level 1 are read off it
(``omega._ordinary_rows``), and the higher levels and the images of the
Betti path are iterated applications of it over Z[zeta_N]
(``omega.apply_regular_power``).  ``BoundaryMatrix`` is the Q(zeta_N)
matrix of a power d^q, summed over the integer group ring for every q.
It serves the two jobs whose intermediate images d^s x leave the allowed
span, so that ``faces`` cannot carry them: the single-level spaces
``omega.omega_nq`` (q >= 2) and ``verify_nilpotency`` on the regular
span.  Both read its entries and never apply it.  The free operator
below exists only to check the paper's closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .complexes import PathComplex, Path, face
from .cyclotomic import Scalar, power_sum, q_factorial
from .linalg import Matrix

Chain = dict[Path, Scalar]


def _add_term(chain: Chain, p: Path, coeff: Scalar) -> None:
    cur = chain.get(p)
    new = coeff if cur is None else cur + coeff
    if new:
        chain[p] = new
    else:
        chain.pop(p, None)


@dataclass
class BoundaryMatrix:
    """Matrix of the q-th regular boundary power on the allowed n-path basis.

    Columns follow the lexicographic allowed basis in dimension n.  Rows
    cover dimension n-q: first every allowed (n-q)-path, then the
    non-allowed regular paths actually reached, both lexicographically.
    """

    n: int
    q: int
    order: int
    col_paths: tuple[Path, ...]
    row_paths: tuple[Path, ...]
    allowed_rows: int
    entries: dict[tuple[int, int], Scalar]

    def nonallowed_block(self) -> Matrix:
        entries = {
            (r - self.allowed_rows, c): v
            for (r, c), v in self.entries.items()
            if r >= self.allowed_rows
        }
        return Matrix(len(self.row_paths) - self.allowed_rows, len(self.col_paths),
                      self.order, entries)


def _group_ring_power(p: Path, q: int, N: int) -> dict[Path, list[int]]:
    """q-th regular boundary power of one path over Z[x]/(x^N - 1).

    A coefficient is the integer vector of its exponents 0..N-1, and
    deleting face j multiplies by x^j, which rotates the vector by j.
    Only the face that closes the gap at j can repeat a vertex, so a
    face of a regular path is irregular exactly when its two new
    neighbours coincide.
    """
    unit = [0] * N
    unit[0] = 1
    chain = {p: unit}
    for _ in range(q):
        out: dict[Path, list[int]] = {}
        for pp, vec in chain.items():
            last = len(pp) - 1
            if last < 1:
                continue
            for j in range(last + 1):
                if 0 < j < last and pp[j - 1] == pp[j + 1]:
                    continue
                f = pp[:j] + pp[j + 1:]
                acc = out.get(f)
                if acc is None:
                    acc = out[f] = [0] * N
                for k, c in enumerate(vec):
                    if c:
                        acc[(k + j) % N] += c
        chain = out
    return chain


class Faces(NamedTuple):
    """The faces of d = d^1 on the allowed n-paths, the same for every N.

    Rows are every allowed (n-1)-path, then the non-allowed regular
    paths reached, both lexicographically.  ``columns[c]`` lists the
    (row, j) pairs of the c-th allowed n-path: deleting position j gives
    that row's path, so the entry there is zeta^j.  A regular path has
    no two deletions with the same face (that needs equal consecutive
    vertices), so every entry is a single root of unity.
    """

    row_paths: tuple[Path, ...]
    allowed_rows: int
    columns: tuple[tuple[tuple[int, int], ...], ...]


def faces(P: PathComplex, n: int) -> Faces:
    """The d^1 faces of the allowed n-paths, n >= 1 (see ``Faces``), made once per n."""
    key = ("faces", n)
    cached = P._memo.get(key)
    if cached is not None:
        return cached
    cols = P.paths(n)
    allowed = P.paths(n - 1)
    index = {p: i for i, p in enumerate(allowed)}
    reached: list[list[tuple[Path, int]]] = []
    for p in cols:
        last = len(p) - 1
        reached.append([(p[:j] + p[j + 1:], j) for j in range(last + 1)
                        if not (0 < j < last and p[j - 1] == p[j + 1])])
    extras = sorted({f for col in reached for f, _ in col if f not in index})
    index.update((f, len(allowed) + i) for i, f in enumerate(extras))
    columns = tuple(tuple((index[f], j) for f, j in col) for col in reached)
    cached = P._memo[key] = Faces(tuple(allowed) + tuple(extras), len(allowed), columns)
    return cached


def boundary_power_matrix(P: PathComplex, n: int, q: int, N: int) -> BoundaryMatrix:
    """Assemble the matrix of the q-th power of the regular boundary.

    Each column's power is summed over the integer group ring (see
    ``_group_ring_power``) and only the entries left at the end are
    mapped into Q(zeta_N), through x^k -> zeta^k (integer vectors, as
    Phi_N is monic), once per distinct integer vector.  Columns are built
    one at a time, so only the finished entries stay alive.
    """
    if q < 1:
        raise ValueError("power must be >= 1")
    key = ("bpm", n, q, N)
    cached = P._memo.get(key)
    if cached is not None:
        return cached

    cols = P.paths(n)
    if n - q < 0:
        result = BoundaryMatrix(n, q, N, cols, (), 0, {})
        P._memo[key] = result
        return result

    scalars: dict[tuple[int, ...], Scalar | None] = {}

    def to_scalar(vec: list[int]) -> Scalar | None:
        """The entry in Q(zeta_N), or None where it vanishes there."""
        key = tuple(vec)
        if key not in scalars:
            coeffs = power_sum(N, vec)
            scalars[key] = (Scalar(N, tuple(Fraction(c) for c in coeffs))
                            if any(coeffs) else None)
        return scalars[key]

    allowed = P.paths(n - q)
    allowed_index = {p: i for i, p in enumerate(allowed)}
    entries: dict[tuple[int, int], Scalar] = {}
    escaped: list[tuple[Path, int, Scalar]] = []
    for c, p in enumerate(cols):
        for f, vec in _group_ring_power(p, q, N).items():
            v = to_scalar(vec)
            if v is None:
                continue
            r = allowed_index.get(f)
            if r is None:
                escaped.append((f, c, v))
            else:
                entries[(r, c)] = v

    extras = sorted({f for f, _, _ in escaped})
    extra_index = {p: len(allowed) + i for i, p in enumerate(extras)}
    for f, c, v in escaped:
        entries[(extra_index[f], c)] = v
    result = BoundaryMatrix(n, q, N, cols, tuple(allowed) + tuple(extras), len(allowed), entries)
    P._memo[key] = result
    return result


def verify_nilpotency(P: PathComplex, N: int, n_max: int) -> bool:
    """Does the N-th regular boundary power vanish on every allowed basis?

    The power is taken through the full regular span reached from the
    allowed n-paths, for n <= n_max; below dimension N it is zero.  This
    holds for simplicial complexes and acyclic digraphs; a digraph whose
    walks revisit a vertex two steps apart can defeat it, because dropped
    irregular faces no longer cancel.
    """
    return not any(boundary_power_matrix(P, n, N, N).entries for n in range(N, n_max + 1))


# -- the free (non-regular) operator ------------------------------------


def nonregular_power(p: Path, r: int, N: int) -> Chain:
    """The r-th power of the boundary on the free module over all elementary paths."""
    chain: Chain = {p: Scalar.one(N)}
    for _ in range(r):
        out: Chain = {}
        for pp, c in chain.items():
            if len(pp) <= 1:
                continue
            for j in range(len(pp)):
                _add_term(out, face(pp, j), c.times_unit(j))
        chain = out
    return chain


def kapranov_expansion_check(p: Path, r: int, N: int) -> bool:
    """Check the closed form of the r-th boundary power on the free module.

    With 0-based deletion positions the iterated operator expands as

        d^r = [r!]_q * sum over j_1 < ... < j_r of
              q^(j_1 + ... + j_r - r(r-1)/2) * (delete positions j_1..j_r)

    The exponent shift r(r-1)/2 accounts for index slippage when the
    deletions are performed one at a time.  For r >= N both sides vanish
    since [N!]_q = 0.
    """
    if not 1 <= r <= len(p):
        raise ValueError("power out of range for this path")
    lhs = nonregular_power(p, r, N)

    from itertools import combinations

    factor = q_factorial(N, r)
    shift = r * (r - 1) // 2
    rhs: Chain = {}
    if factor:
        for subset in combinations(range(len(p)), r):
            if len(subset) == len(p):
                continue  # deleting every vertex leaves nothing below dim 0
            remaining = tuple(v for i, v in enumerate(p) if i not in subset)
            coeff = factor.times_unit(sum(subset) - shift)
            _add_term(rhs, remaining, coeff)
    return lhs == rhs
