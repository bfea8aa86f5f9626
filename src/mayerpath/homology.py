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
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import PathComplex
from .cyclotomic import Scalar, zeta_power
from .linalg import NotASubspace, Subspace
from .omega import _image_rank, _images, _kernel_within, _nth_power_record, omega_full


class ImageEscapesAllowed(ValueError):
    """A boundary image of an invariant chain left the allowed span."""


def cycle_space(P: PathComplex, n: int, q: int, N: int) -> Subspace:
    """Z_n^{N,q}: invariant n-chains killed by the q-th boundary power.

    One nullspace over the Omega_n basis of its d^q images (see
    ``omega._images``).
    """
    if not 1 <= q <= N - 1:
        raise ValueError("need 1 <= q <= N-1")
    return _kernel_within(omega_full(P, n, N).space, _images(P, n, N)[q - 1])


def boundary_space(P: PathComplex, n: int, q: int, N: int) -> Subspace:
    """B_n^{N,q}: images of invariant (n+N-q)-chains under d^(N-q)."""
    if not 1 <= q <= N - 1:
        raise ValueError("need 1 <= q <= N-1")
    ambient = len(P.paths(n))
    zero = Scalar.zero(N)
    vectors = [tuple(y.get(i, zero) for i in range(ambient))
               for y in _images(P, n + N - q, N)[N - q - 1]]
    return Subspace.from_spanning(vectors, ambient, N)


def _boundary_rank(P: PathComplex, n: int, q: int, N: int) -> int:
    """dim B_n^{N,q} = rank(d^(N-q) | Omega_m^N), m = n+N-q.

    For n >= q the rank comes with the d^N record of Omega_m (see
    ``omega._nth_power_record``), and B is only a subspace of the cycles
    when d^N vanishes there.  For n < q, d^N x lies in dimension n - q < 0
    and is 0.
    """
    m = n + N - q
    if n >= q and not _nth_power_record(P, m, N).vanishes:
        raise NotASubspace(
            f"d^{N} does not vanish on Omega_{m}, so boundaries escape cycles; "
            f"the chain-complex invariant d^q d^(N-q) = 0 failed upstream"
        )
    return _image_rank(P, m, N - q, N)


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
    ``_boundary_rank``); when it fails the quotient is undefined and
    ``NotASubspace`` is raised.
    """
    if not 1 <= q <= N - 1:
        raise ValueError("need 1 <= q <= N-1")
    cycles = omega_full(P, n, N).space.dim - _image_rank(P, n, q, N)
    return cycles - _boundary_rank(P, n, q, N)


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
    entries = {}
    for n in range(max_dim + 1):
        for q in range(1, N):
            entries[(n, q)] = betti(P, n, q, N)
    omega_dims = {n: omega_full(P, n, N).space.dim for n in range(max_dim + 1)}
    return BettiTable(N, max_dim, entries, omega_dims, P.digest())


# -- Poincare polynomial diagnostic --------------------------------------


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


def poincare_identity_check(P: PathComplex, N: int, q: int,
                            search_limit: int = 12) -> PoincareReport:
    """Compare sum_i dim(C_i) z^i with its expression through Betti numbers.

    The identity reads P_C(z) = (1 - z^q)^{-1} * sum_i z^i (b_i^{N,q} -
    b_{i-q}^{N,N-q}) for the complex C_i = Omega_i^N.  The complex counts
    as bounded when the allowed paths run out, or when the invariant
    spaces vanish for N+1 consecutive dimensions (enough slack for every
    boundary space the truncated sums touch).  Otherwise the report is
    flagged unbounded and no values are produced.
    """
    top = None
    zero_run = 0
    for n in range(search_limit + N + 2):
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

    dims = {n: omega_full(P, n, N).space.dim for n in range(top + 1)}
    lhs = Scalar.zero(N)
    for n, d in dims.items():
        if d:
            lhs = lhs + zeta_power(N, n) * Scalar.from_rational(N, d)

    total = Scalar.zero(N)
    for i in range(top + q + 1):
        b_main = betti(P, i, q, N) if i <= top else 0
        b_shift = betti(P, i - q, N - q, N) if 0 <= i - q <= top else 0
        diff = b_main - b_shift
        if diff:
            total = total + zeta_power(N, i) * Scalar.from_rational(N, diff)
    denom = Scalar.one(N) - zeta_power(N, q)
    rhs = total * denom.inverse()
    return PoincareReport(N, q, True, top, lhs, rhs)


# -- independent dense oracle ---------------------------------------------
#
# A second computation of every Betti number that shares only the scalar
# arithmetic and the path enumeration with the main engine: boundary
# images are re-derived inline, and all linear algebra is dense list-of-
# lists elimination with a bottom-up pivot rule and no subspace classes.


def _oracle_boundary_vectors(paths, target_index, power, N):
    """Dense images of unit chains under the regular boundary power."""
    vectors = []
    for p in paths:
        chain = {p: Scalar.one(N)}
        for _ in range(power):
            nxt: dict = {}
            for pp, c in chain.items():
                if len(pp) <= 1:
                    continue
                for j in range(len(pp)):
                    f = pp[:j] + pp[j + 1:]
                    if any(f[i] == f[i + 1] for i in range(len(f) - 1)):
                        continue
                    add = c * zeta_power(N, j)
                    cur = nxt.get(f)
                    val = add if cur is None else cur + add
                    if val:
                        nxt[f] = val
                    else:
                        nxt.pop(f, None)
            chain = nxt
        vec = [Scalar.zero(N)] * len(target_index)
        extra = {}
        for f, c in chain.items():
            if f in target_index:
                vec[target_index[f]] = c
            else:
                extra[f] = c
        vectors.append((vec, extra))
    return vectors


def _dense_eliminate(rows: list[list[Scalar]]) -> list[list[Scalar]]:
    """Row reduce with the *last* available pivot row; returns echelon rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    cols = len(rows[0])
    used: list[int] = []
    pivot_of: list[tuple[int, int]] = []
    for c in range(cols):
        pr = None
        for i in range(len(rows) - 1, -1, -1):
            if i not in used and rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        inv = rows[pr][c].inverse()
        rows[pr] = [v * inv for v in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        used.append(pr)
        pivot_of.append((c, pr))
    return [rows[pr] for (_, pr) in pivot_of]


def _dense_rank(rows) -> int:
    return len(_dense_eliminate(rows))


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


def _dense_contains(space: list[list[Scalar]], vector: list[Scalar]) -> bool:
    ech = _dense_eliminate(space + [vector]) if space else ([vector] if any(vector) else [])
    return len(ech) == len(_dense_eliminate(space))


def brute_force_oracle(P: PathComplex, N: int, max_dim: int = 3) -> BettiTable:
    """Recompute the full Betti table with the dense engine."""
    omega_cache: dict[int, list[list[Scalar]]] = {}

    def omega_dense(n: int) -> list[list[Scalar]]:
        if n in omega_cache:
            return omega_cache[n]
        paths = P.paths(n)
        cols = len(paths)
        one, zero = Scalar.one(N), Scalar.zero(N)
        space = [[one if i == j else zero for j in range(cols)] for i in range(cols)]
        for q in range(1, min(N - 1, n - 1) + 1):
            target = {p: i for i, p in enumerate(P.paths(n - q))}
            vecs = _oracle_boundary_vectors(paths, target, q, N)
            extra_paths = sorted({f for _, extra in vecs for f in extra})
            if extra_paths:
                constraint_rows = []
                for f in extra_paths:
                    constraint_rows.append([extra.get(f, zero) for _, extra in vecs])
                level = _dense_nullspace(constraint_rows, cols, N)
                space = _dense_intersect(space, level, cols, N)
        space = _dense_eliminate(space)
        omega_cache[n] = space
        return space

    def apply_dense_power(vec: list[Scalar], n: int, power: int):
        paths = P.paths(n)
        target = {p: i for i, p in enumerate(P.paths(n - power))} if n - power >= 0 else {}
        unit_images = _oracle_boundary_vectors(paths, target, power, N)
        out = [Scalar.zero(N)] * len(target)
        escaped: dict = {}
        for w, (img, extra) in zip(vec, unit_images):
            if not w:
                continue
            out = [x + w * y for x, y in zip(out, img)]
            for f, c in extra.items():
                cur = escaped.get(f, Scalar.zero(N))
                val = cur + w * c
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
                paths = P.paths(n)
                target = {p: i for i, p in enumerate(P.paths(n - q))}
                vecs = _oracle_boundary_vectors(paths, target, q, N)
                all_rows_paths = list(P.paths(n - q)) + sorted(
                    {f for _, extra in vecs for f in extra}
                )
                full_rows = []
                for f in all_rows_paths:
                    fi = target.get(f)
                    row = []
                    for img, extra in vecs:
                        row.append(img[fi] if fi is not None else extra.get(f, Scalar.zero(N)))
                    full_rows.append(row)
                kernel = _dense_nullspace(full_rows, cols, N) if full_rows else \
                    [[Scalar.one(N) if i == j else Scalar.zero(N) for j in range(cols)]
                     for i in range(cols)]
                z_space = _dense_intersect(omega_n, kernel, cols, N)
            # boundaries
            m = n + N - q
            b_vectors = []
            for vec in omega_dense(m):
                img, escaped = apply_dense_power(vec, m, N - q)
                if escaped:
                    raise ImageEscapesAllowed(
                        "oracle: boundary image left the allowed span"
                    )
                if any(img):
                    b_vectors.append(img)
            b_space = _dense_eliminate(b_vectors) if b_vectors else []
            for bv in b_space:
                if not _dense_contains(z_space, bv):
                    raise ImageEscapesAllowed(
                        "oracle: boundaries not contained in cycles"
                    )
            entries[(n, q)] = len(z_space) - len(b_space)

    omega_dims = {n: len(omega_dense(n)) for n in range(max_dim + 1)}
    return BettiTable(N, max_dim, entries, omega_dims, P.digest())
