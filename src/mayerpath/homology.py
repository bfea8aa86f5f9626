"""Betti numbers from ranks, cycle/boundary spaces and the independent dense oracle.

For the N-chain complex of invariant paths, the level-(N,q) homology in
dimension n is ker(d^q) / im(d^(N-q)), with the kernel taken literally
(the boundary is zero below dimension 0) and the image taken from the
intersection complex Omega^N.  A Betti number needs ranks only, so
``betti`` forms no subspace.  Every boundary power it ranks is an
iterated d^1: the images d^r x of the Omega_m basis, r = 1 .. N-1, are
made once per dimension m by ``omega._images``, and so is the d^N record
that decides containment.  Containment of boundaries in cycles is
checked, not assumed: on inputs where the weighted boundary fails to be
N-nilpotent (double edges at N >= 3) the computation stops with a hard
error instead of reporting meaningless dimensions.  ``cycle_space`` and
``boundary_space`` build the two subspaces from the same images, as
diagnostics.

Each rank is taken over the ring of integers Z[zeta_N]
(``omega._image_rank``, ``linalg.certified_rank``): the images of the
basis rows, scaled to have integral entries, are ranked over F_p at
successive primes p = 1 (mod N) above 2^31, and the largest rank r is
kept.  Every F_p rank is a lower bound, since a nonzero minor over F_p
lifts to a nonzero minor.  Any (r+1)-minor M vanishes modulo each prime
ideal (p, zeta - w) used, so the product of the primes divides the
integer Norm(M), while Hadamard's inequality bounds |Norm(M)| by
(prod of the r+1 largest s_i)^(phi(N)/2), s_i = sum_j ||a_ij||_1^2 over
a row.  The primes stop once their squared product exceeds
(prod of those s_i)^phi(N); then M = 0 and r is the rank.  So every
Betti number is a certified rank, with no elimination over Q(zeta_N).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .complexes import PathComplex
from .cyclotomic import Scalar, power_sum, unit_exponent, zeta_power
from .linalg import NotASubspace, Row, Subspace
from .omega import (_image_rank, _images, _in_field, _integer_basis, _kernel_within,
                    _nth_power_record, omega_full)


class ImageEscapesAllowed(ValueError):
    """A boundary image of an invariant chain left the allowed span."""


def _exact_images(P: PathComplex, m: int, r: int, N: int) -> list[Row]:
    """d^r of the Omega_m^N basis in Q(zeta_N): the integer images over their row scales."""
    return _in_field(_images(P, m, N)[r - 1], _integer_basis(P, m, N - 1, N)[1], N)


def cycle_space(P: PathComplex, n: int, q: int, N: int) -> Subspace:
    """Z_n^{N,q}: invariant n-chains killed by the q-th boundary power.

    One nullspace over the Omega_n basis of its d^q images (see
    ``omega._images``).
    """
    if not 1 <= q <= N - 1:
        raise ValueError("need 1 <= q <= N-1")
    return _kernel_within(omega_full(P, n, N).space, _exact_images(P, n, q, N))


def boundary_space(P: PathComplex, n: int, q: int, N: int) -> Subspace:
    """B_n^{N,q}: images of invariant (n+N-q)-chains under d^(N-q)."""
    if not 1 <= q <= N - 1:
        raise ValueError("need 1 <= q <= N-1")
    return Subspace.from_spanning(_exact_images(P, n + N - q, N - q, N), len(P.paths(n)), N)


def _check_containment(P: PathComplex, n: int, q: int, N: int) -> None:
    """Raise ``NotASubspace`` where the boundaries of the pair (n, q) escape its cycles.

    For n >= q, B is inside Z only when d^N vanishes on Omega_m,
    m = n+N-q (see ``betti``), and the quotient is undefined otherwise.
    For n < q, d^N x lies in dimension n - q < 0 and is 0.
    """
    m = n + N - q
    if n >= q and not _nth_power_record(P, m, N).vanishes:
        raise NotASubspace(
            f"d^{N} does not vanish on Omega_{m}, so boundaries escape cycles; "
            f"the chain-complex invariant d^q d^(N-q) = 0 failed upstream"
        )


def betti(P: PathComplex, n: int, q: int, N: int) -> int:
    """beta_n^{N,q} = dim Omega_n - rank(d^q | Omega_n) - rank(d^(N-q) | Omega_m).

    Here m = n + N - q and Omega = Omega^N.  Cycles are Z = Omega_n with
    ker d^q, of dimension dim Omega_n - rank(d^q | Omega_n), and
    boundaries are B = d^(N-q) Omega_m.  The difference is dim Z/B only
    when B is inside Z, and that holds exactly when d^N = 0 on Omega_m:

    * For x in Omega_m, d^r x is allowed for every r <= N - 1: for
      r <= m - 1 because Omega_m lies in Omega_m^{N,r}, and for r >= m
      because then d^r x lives in dimension <= 0, where every regular
      path is allowed.
    * Let y = d^(N-q) x.  Then d^r y = d^(N-q+r) x is allowed for
      r <= q - 1, and d^q y = d^N x.  If d^N x = 0, then d^r y = 0 for
      every r >= q too, so y lies in Omega_n and in ker d^q: B is in Z.
    * Conversely, if B is in Z, then d^N x = d^q y = 0 for every x.

    The check is read once per m from the d^N record (see
    ``_check_containment``); when it fails the quotient is undefined and
    ``NotASubspace`` is raised.  The ranks are certified over Z[zeta_N]
    (see the module docstring).
    """
    if not 1 <= q <= N - 1:
        raise ValueError("need 1 <= q <= N-1")
    _check_containment(P, n, q, N)
    m = n + N - q
    return omega_full(P, n, N).space.dim - _image_rank(P, n, q, N) - _image_rank(P, m, N - q, N)


@dataclass
class BettiTable:
    """Betti numbers over the (n, q) grid plus invariant-space dimensions."""

    order: int
    max_dim: int
    entries: dict[tuple[int, int], int]
    omega_dims: dict[int, int]
    input_digest: str

    def to_json_dict(self) -> dict:
        return {
            "N": self.order,
            "input": self.input_digest,
            "max_dim": self.max_dim,
            "betti": [
                {"n": n, "q": q, "dim": self.entries[(n, q)]}
                for (n, q) in sorted(self.entries)
            ],
            "omega_dims": {str(n): d for n, d in sorted(self.omega_dims.items())},
        }

    def render_markdown(self) -> str:
        qs = sorted({q for (_, q) in self.entries})
        header = "| n | dim Omega_n |" + "".join(f" q={q} |" for q in qs)
        sep = "|---|---|" + "---|" * len(qs)
        lines = [header, sep]
        for n in range(self.max_dim + 1):
            cells = "".join(f" {self.entries[(n, q)]} |" for q in qs)
            lines.append(f"| {n} | {self.omega_dims[n]} |" + cells)
        return "\n".join(lines)

    def render_csv(self) -> str:
        lines = ["n,q,betti"]
        for (n, q) in sorted(self.entries):
            lines.append(f"{n},{q},{self.entries[(n, q)]}")
        return "\n".join(lines)


def betti_table(P: PathComplex, N: int, max_dim: int = 3) -> BettiTable:
    """Every beta_n^{N,q}, n <= max_dim."""
    entries = {(n, q): betti(P, n, q, N) for n in range(max_dim + 1) for q in range(1, N)}
    omega_dims = {n: omega_full(P, n, N).space.dim for n in range(max_dim + 1)}
    return BettiTable(N, max_dim, entries, omega_dims, P.digest())


# -- Poincare polynomial diagnostic --------------------------------------

# The end of the complex is looked for in dimensions 0 .. POINCARE_SEARCH_LIMIT + N + 1.
POINCARE_SEARCH_LIMIT = 12


@dataclass
class PoincareReport:
    order: int
    q: int
    bounded: bool
    top_dim: int
    lhs: Scalar | None
    rhs: Scalar | None

    @property
    def equal(self) -> bool | None:
        if not self.bounded:
            return None
        return self.lhs == self.rhs


def poincare_identity_check(P: PathComplex, N: int, q: int) -> PoincareReport:
    """Compare sum_i dim(C_i) z^i with its expression through Betti numbers.

    The identity reads P_C(z) = (1 - z^q)^{-1} * sum_i z^i (b_i^{N,q} -
    b_{i-q}^{N,N-q}) for the complex C_i = Omega_i^N.  The complex counts
    as bounded when the allowed paths run out, or when the invariant
    spaces vanish for N+1 consecutive dimensions (enough slack for every
    boundary space the truncated sums touch), within the first
    ``POINCARE_SEARCH_LIMIT + N + 2`` dimensions.  Otherwise the report is
    flagged unbounded and no values are produced.

    Both sums have integer weights, so each is added up as phi(N) ints
    by ``cyclotomic.power_sum`` and becomes one ``Scalar``; the
    right side is then one product with (1 - zeta^q)^-1, which is
    inverted once per (N, q) and process.
    """
    top = None
    zero_run = 0
    for n in range(POINCARE_SEARCH_LIMIT + N + 2):
        if len(P.paths(n)) == 0:
            top = n - 1 - zero_run
            break
        if omega_full(P, n, N).space.dim == 0:
            zero_run += 1
            if zero_run >= N + 1:
                top = n - zero_run
                break
        else:
            zero_run = 0
    if top is None:
        return PoincareReport(N, q, False, -1, None, None)

    lhs = _integer_sum(N, [omega_full(P, n, N).space.dim for n in range(top + 1)])
    total = _integer_sum(N, [
        (betti(P, i, q, N) if i <= top else 0)
        - (betti(P, i - q, N - q, N) if 0 <= i - q <= top else 0)
        for i in range(top + q + 1)])
    return PoincareReport(N, q, True, top, lhs, total * _geometric_factor(N, q))


def _integer_sum(N: int, weights: list[int]) -> Scalar:
    """sum_n weights[n] * zeta^n, added up in Z[zeta_N] as phi(N) ints."""
    return Scalar(N, tuple(Fraction(c) for c in power_sum(N, weights)))


@lru_cache(maxsize=None)
def _geometric_factor(N: int, q: int) -> Scalar:
    """(1 - zeta^q)^-1 in Q(zeta_N), for 1 <= q <= N-1."""
    return (Scalar.one(N) - zeta_power(N, q)).inverse()


# -- independent dense oracle ---------------------------------------------
#
# A second computation of every Betti number that shares only the scalar
# arithmetic and the path enumeration with the main engine: boundary
# images are re-derived inline, and all linear algebra is dense list-of-
# lists elimination with a bottom-up pivot rule and no subspace classes.
# The images d^q of the unit n-chains are kept as chains, one table per
# (n, q) and local to the call; table (n, q) is d^1 applied once more to
# table (n, q-1), and the tables are shared by the Omega levels, the
# cycle kernels and the boundary images.  Containment of boundaries in
# cycles is one elimination per (n, q) cell.  Products with a unit
# +-zeta^k are the rotations of ``Scalar.times_unit``, and unit pivots
# are recognised by ``cyclotomic.unit_exponent``: the scalar arithmetic
# the oracle shares.  So the face weights zeta^j of d^1 and the
# normalisation of a unit pivot, by +-zeta^(N-k), need neither a general
# product nor an inverse.


def _oracle_d1(chain: dict) -> dict:
    """d^1 of a chain {regular path: Scalar}; face j weighs zeta^j, irregular faces drop."""
    out: dict = {}
    for pp, c in chain.items():
        last = len(pp) - 1
        if not last:
            continue
        for j in range(last + 1):
            # pp is regular, so only the two neighbours of vertex j can meet.
            if 0 < j < last and pp[j - 1] == pp[j + 1]:
                continue
            f = pp[:j] + pp[j + 1:]
            add = c.times_unit(j)
            cur = out.get(f)
            val = add if cur is None else cur + add
            if val:
                out[f] = val
            else:
                out.pop(f, None)
    return out


def _oracle_image_chains(tables: dict, P: PathComplex, n: int, power: int,
                         N: int) -> list[dict]:
    """d^power of every unit n-chain, as chains; table (n, power) memoised in ``tables``.

    Table (n, 0) holds the unit chains, and table (n, power) is d^1
    applied to each chain of table (n, power - 1).
    """
    key = (n, power)
    if key not in tables:
        if power == 0:
            tables[key] = [{p: Scalar.one(N)} for p in P.paths(n)]
        else:
            below = _oracle_image_chains(tables, P, n, power - 1, N)
            tables[key] = [_oracle_d1(chain) for chain in below]
    return tables[key]


def _dense_eliminate(rows: list[list[Scalar]]) -> list[list[Scalar]]:
    """Row reduce with the *last* available pivot row; returns echelon rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    cols = len(rows[0])
    used: set[int] = set()
    pivot_of: list[tuple[int, int]] = []
    for c in range(cols):
        pr = None
        for i in range(len(rows) - 1, -1, -1):
            if i not in used and rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        unit = unit_exponent(rows[pr][c])
        if unit is None:
            inv = rows[pr][c].inverse()
            rows[pr] = [v * inv if v else v for v in rows[pr]]
        elif unit != (0, 1):
            k, sign = unit
            rows[pr] = [v.times_unit(-k, sign) if v else v for v in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[pr])]
        used.add(pr)
        pivot_of.append((c, pr))
    return [rows[pr] for (_, pr) in pivot_of]


def _dense_nullspace(rows: list[list[Scalar]], cols: int, N: int) -> list[list[Scalar]]:
    ech = _dense_eliminate(rows)
    pivots = []
    for r in ech:
        for c in range(cols):
            if r[c]:
                pivots.append(c)
                break
    pivot_set = set(pivots)
    basis = []
    zero, one = Scalar.zero(N), Scalar.one(N)
    for f in range(cols):
        if f in pivot_set:
            continue
        vec = [zero] * cols
        vec[f] = one
        for row, p in zip(ech, pivots):
            if row[f]:
                vec[p] = -row[f]
        basis.append(vec)
    return basis


def _dense_intersect(a: list[list[Scalar]], b: list[list[Scalar]], cols: int, N: int):
    """Intersection by solving for coefficient vectors on the a-side."""
    if not a or not b:
        return []
    stacked = []
    for j in range(cols):
        stacked.append([row[j] for row in a] + [-row[j] for row in b])
    coeffs = _dense_nullspace(stacked, len(a) + len(b), N)
    zero = Scalar.zero(N)
    out = []
    for combo in coeffs:
        vec = [zero] * cols
        for w, row in zip(combo[: len(a)], a):
            if w:
                vec = [x + w * y for x, y in zip(vec, row)]
        if any(vec):
            out.append(vec)
    return _dense_eliminate(out) if out else []


def brute_force_oracle(P: PathComplex, N: int, max_dim: int = 3) -> BettiTable:
    """Recompute the full Betti table with the dense engine."""
    omega_cache: dict[int, list[list[Scalar]]] = {}
    tables: dict[tuple[int, int], list[dict]] = {}
    zero, one = Scalar.zero(N), Scalar.one(N)

    def identity(cols: int) -> list[list[Scalar]]:
        return [[one if i == j else zero for j in range(cols)] for i in range(cols)]

    def omega_dense(n: int) -> list[list[Scalar]]:
        if n in omega_cache:
            return omega_cache[n]
        cols = len(P.paths(n))
        space = None        # no level yet; the RREF at the end makes the basis canonical
        for q in range(1, min(N - 1, n - 1) + 1):
            chains = _oracle_image_chains(tables, P, n, q, N)
            allowed = P.allowed_set(n - q)
            extra_paths = sorted({f for chain in chains for f in chain if f not in allowed})
            if extra_paths:
                constraint_rows = [[chain.get(f, zero) for chain in chains] for f in extra_paths]
                level = _dense_nullspace(constraint_rows, cols, N)
                space = level if space is None else _dense_intersect(space, level, cols, N)
        space = identity(cols) if space is None else _dense_eliminate(space)
        omega_cache[n] = space
        return space

    def apply_dense_power(vec: list[Scalar], chains: list[dict], target: dict):
        """The image of vec under the chains of a table: dense over target, and escaped."""
        out = [zero] * len(target)
        escaped: dict = {}
        for w, chain in zip(vec, chains):
            if not w:
                continue
            for f, b in chain.items():
                i = target.get(f)
                if i is not None:
                    out[i] = out[i] + w * b
                    continue
                val = escaped.get(f, zero) + w * b
                if val:
                    escaped[f] = val
                else:
                    escaped.pop(f, None)
        return out, escaped

    entries = {}
    for n in range(max_dim + 1):
        omega_n = omega_dense(n)
        cols = len(P.paths(n))
        for q in range(1, N):
            # cycles
            if n - q < 0:
                z_space = omega_n
            else:
                chains = _oracle_image_chains(tables, P, n, q, N)
                row_paths = list(P.paths(n - q)) + sorted(
                    {f for chain in chains for f in chain} - P.allowed_set(n - q))
                full_rows = [[chain.get(f, zero) for chain in chains] for f in row_paths]
                kernel = _dense_nullspace(full_rows, cols, N) if full_rows else identity(cols)
                z_space = _dense_intersect(omega_n, kernel, cols, N)
            # boundaries
            m = n + N - q
            chains = _oracle_image_chains(tables, P, m, N - q, N)
            target = {p: i for i, p in enumerate(P.paths(n))}
            b_vectors = []
            for vec in omega_dense(m):
                img, escaped = apply_dense_power(vec, chains, target)
                if escaped:
                    raise ImageEscapesAllowed(
                        "oracle: boundary image left the allowed span"
                    )
                if any(img):
                    b_vectors.append(img)
            b_space = _dense_eliminate(b_vectors) if b_vectors else []
            # z_space holds independent echelon rows, so B is inside Z
            # exactly when stacking B under them adds no rank.
            if len(_dense_eliminate(z_space + b_space)) != len(z_space):
                raise ImageEscapesAllowed(
                    "oracle: boundaries not contained in cycles"
                )
            entries[(n, q)] = len(z_space) - len(b_space)

    omega_dims = {n: len(omega_dense(n)) for n in range(max_dim + 1)}
    return BettiTable(N, max_dim, entries, omega_dims, P.digest())
