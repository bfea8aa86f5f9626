"""The root-of-unity weighted boundary operator and its powers.

The operator sends e_{i0...ip} to sum_j zeta^j e_{i0...î_j...ip}.  Two
variants matter:

* the regular operator drops faces with equal consecutive vertices from
  the image (this is the one all homology downstream uses), and
* the free (non-regular) operator keeps them; on the free module the
  N-th power vanishes identically because [N!]_q = 0.

The regular operator has one face rule, ``regular_faces``: the (face, j)
pairs it keeps, each weighted zeta^j.  Everything else is built on it.
``faces`` is its table on the allowed n-paths, enumerated once per
dimension for every N, which ``omega.apply_regular_power`` applies over
Z[zeta_N] for the higher Omega levels and the images of the Betti path.
``regular_power`` iterates the rule on one path through the full regular
span, so intermediate irregular faces are dropped at every step, not
only at the end; it serves the jobs whose intermediate images leave the
allowed span, so that ``faces`` cannot carry them: the single-level
spaces ``omega.omega_nq`` (q >= 2) and ``verify_nilpotency`` on the
regular span.  The free operator below exists only to check the paper's
closed form.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import PathComplex, Path, face
from .cyclotomic import Scalar, euler_phi, q_factorial, rotate

Chain = dict[Path, Scalar]


def _add_term(chain: Chain, p: Path, coeff: Scalar) -> None:
    cur = chain.get(p)
    new = coeff if cur is None else cur + coeff
    if new:
        chain[p] = new
    else:
        chain.pop(p, None)


def regular_faces(p: Path) -> list[tuple[Path, int]]:
    """The (face, j) pairs of the regular boundary of a regular path, j ascending.

    Deleting position j gives the face, weighted zeta^j.  Only the face
    that closes the gap at j can repeat a vertex, so a face of a regular
    path is irregular, and dropped, exactly when its two new neighbours
    coincide.  No two deletions give the same face (that needs equal
    consecutive vertices).  A vertex has no faces.
    """
    last = len(p) - 1
    if last < 1:
        return []
    return [(p[:j] + p[j + 1:], j) for j in range(last + 1)
            if not (0 < j < last and p[j - 1] == p[j + 1])]


class Faces(NamedTuple):
    """The faces of d = d^1 on the allowed n-paths, the same for every N.

    Rows are every allowed (n-1)-path, lexicographically, then the
    non-allowed regular paths, numbered from ``allowed_rows`` on in order
    of first reach.  ``columns[c]`` lists the (row, j) pairs of the c-th
    allowed n-path (``regular_faces``), so the entry there is the unit
    zeta^j.
    """

    allowed_rows: int
    columns: tuple[tuple[tuple[int, int], ...], ...]


def faces(P: PathComplex, n: int) -> Faces:
    """The d^1 faces of the allowed n-paths, n >= 1 (see ``Faces``), made once per n."""
    key = ("faces", n)
    cached = P._memo.get(key)
    if cached is not None:
        return cached
    index = {p: i for i, p in enumerate(P.paths(n - 1))}
    allowed = len(index)
    columns = tuple(tuple((index.setdefault(f, len(index)), j) for f, j in regular_faces(p))
                    for p in P.paths(n))
    cached = P._memo[key] = Faces(allowed, columns)
    return cached


def regular_power(p: Path, q: int, N: int) -> dict[Path, tuple[int, ...]]:
    """d^q of one regular path over Z[zeta_N], through the full regular span.

    Returns {path: phi(N) ints in the power basis} without zero entries.
    Each step applies ``regular_faces`` to every path reached; the weight
    zeta^j is the rotation ``cyclotomic.rotate`` of the int coefficients.
    """
    chain = {p: (1,) + (0,) * (euler_phi(N) - 1)}
    for _ in range(q):
        sums: dict[Path, list[int]] = {}
        for pp, a in chain.items():
            for f, j in regular_faces(pp):
                term = rotate(a, j, N)
                acc = sums.get(f)
                if acc is None:
                    sums[f] = list(term)
                else:
                    for k, t in enumerate(term):
                        acc[k] += t
        chain = {f: tuple(v) for f, v in sums.items() if any(v)}
    return chain


def verify_nilpotency(P: PathComplex, N: int, n_max: int) -> bool:
    """Does the N-th regular boundary power vanish on every allowed basis?

    The power is taken through the full regular span reached from the
    allowed n-paths, for n <= n_max; below dimension N it is zero.  This
    holds for simplicial complexes and acyclic digraphs; a digraph whose
    walks revisit a vertex two steps apart can defeat it, because dropped
    irregular faces no longer cancel.
    """
    return not any(regular_power(p, N, N) for n in range(N, n_max + 1) for p in P.paths(n))


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
