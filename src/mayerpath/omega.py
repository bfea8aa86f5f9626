"""Invariant-path spaces Omega_n^{N,q} and their intersection Omega_n^N.

Omega_m^N, the allowed m-chains whose boundary powers d^1 .. d^(N-1)
stay allowed, is built level by level from the one matrix of d = d^1
per dimension (see ``omega_full`` for the recursion and its proof).

Level 1 is the ordinary Omega of path homology (Grigor'yan, Lin,
Muranov and Yau, arXiv:1207.2834), the same for every N, because every
non-allowed row of d^1 is a unit zeta^j times a 0/1 row.  In a digraph
complex both end faces of an allowed path are allowed, so a non-allowed
face f comes from deleting an interior vertex, and it misses exactly one
edge: the pair (f[i], f[i+1]) that the deleted vertex had bridged.  An
allowed path with face f is f with one vertex inserted, and only an
insertion into that gap repairs the missing edge; inserted anywhere
else, the pair stays consecutive and the path is not allowed.  So every
column of the row of f deletes the same position j = i + 1.  The kernel
of the rows is then a kernel over Q: a row with a single live column
forces that column to zero and is peeled off (structured Gaussian
elimination, LaMacchia-Odlyzko), the few rows left are eliminated by
``nullspace`` over Q = Q(zeta_1), and the rational basis is embedded in
Q(zeta_N).  A space spanned by rational vectors has the same reduced row
echelon basis over Q and over Q(zeta_N), so the basis stays canonical.
The 0/1 fact is checked where each row is built: a non-allowed end face,
or a non-allowed face reached by deleting two different positions,
raises ``InvariantViolation``.

On Omega_m^N every d^r x with r <= N-1 is allowed (see
``homology.betti``), so d^r x is r applications of the d^1 matrices,
each intermediate chain checked to be allowed, and d^N x one more
(``_images``).  Boundary powers d^q with q > 1 are assembled only for
the single-level spaces of ``omega_nq`` and for the regular-span check
``boundary.verify_nilpotency``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .boundary import boundary_power_matrix
from .complexes import Path, PathComplex
from .cyclotomic import Scalar
from .linalg import InvariantViolation, Matrix, Row, Subspace, _sub_scaled, nullspace, rank


@dataclass
class OmegaSpace:
    n: int
    order: int
    q: int | None  # None means the intersection over all valid q
    space: Subspace


def omega_nq(P: PathComplex, n: int, q: int, N: int) -> OmegaSpace:
    """Allowed n-chains whose q-th boundary power stays allowed.

    Computed as the nullspace of the non-allowed row block of the q-th
    boundary power matrix.  For q >= n the image lives in dimension <= 0
    where every regular path is allowed, so the space is all of the
    allowed span.
    """
    if N < 2 or not 1 <= q <= N - 1:
        raise ValueError("need N >= 2 and 1 <= q <= N-1")
    key = ("omega_nq", n, q, N)
    cached = P._memo.get(key)
    if cached is not None:
        return cached
    ambient = len(P.paths(n))
    if q >= n:
        space = Subspace.full_space(ambient, N)
    else:
        block = boundary_power_matrix(P, n, q, N).nonallowed_block()
        if block.rows == 0:
            space = Subspace.full_space(ambient, N)
        else:
            space = nullspace(block)
    result = OmegaSpace(n, N, q, space)
    P._memo[key] = result
    return result


def _ordinary_rows(P: PathComplex, m: int) -> list[list[int]]:
    """The 0/1 non-allowed rows of d^1 on the allowed m-paths, m >= 2, as column lists.

    Raises ``InvariantViolation`` where a row would not be a unit times a
    0/1 row (see the module docstring).
    """
    lower = P.allowed_set(m - 1)
    position: dict[Path, int] = {}
    rows: dict[Path, list[int]] = {}
    for c, p in enumerate(P.paths(m)):
        if p[1:] not in lower or p[:-1] not in lower:
            raise InvariantViolation(f"an end face of the allowed path {p} is not allowed")
        for j in range(1, m):
            if p[j - 1] == p[j + 1]:
                continue  # irregular face, dropped by the regular boundary
            f = p[:j] + p[j + 1:]
            if f in lower:
                continue
            if position.setdefault(f, j) != j:
                raise InvariantViolation(
                    f"non-allowed face {f} is reached by deleting positions "
                    f"{position[f]} and {j}, so its row is not a unit times a 0/1 row")
            rows.setdefault(f, []).append(c)
    return list(rows.values())


def _ordinary_omega(P: PathComplex, m: int) -> tuple[list[dict], tuple[int, ...]]:
    """Level 1 over Q: canonical basis rows {column: Fraction} and their pivot columns.

    Shared by every N.  Singleton rows are peeled first, the rest goes to
    ``nullspace`` over Q(zeta_1) on the columns still live.
    """
    key = ("ordinary_omega", m)
    cached = P._memo.get(key)
    if cached is None:
        rows = _ordinary_rows(P, m)
        live = [True] * len(P.paths(m))
        count = [len(r) for r in rows]
        rows_of: list[list[int]] = [[] for _ in live]
        for i, r in enumerate(rows):
            for c in r:
                rows_of[c].append(i)
        stack = [i for i, k in enumerate(count) if k == 1]
        while stack:
            i = stack.pop()
            if count[i] != 1:
                continue  # its last live column was peeled by another row
            c = next(c for c in rows[i] if live[c])
            live[c] = False
            for k in rows_of[c]:
                count[k] -= 1
                if count[k] == 1:
                    stack.append(k)
        cols = [c for c, alive in enumerate(live) if alive]
        index = {c: i for i, c in enumerate(cols)}
        one = Scalar.one(1)
        rest = [{index[c]: one for c in r if live[c]} for r, k in zip(rows, count) if k]
        kernel = (nullspace(Matrix.from_row_dicts(rest, len(cols), 1)) if rest
                  else Subspace.full_space(len(cols), 1))
        basis = [{cols[i]: v.coeffs[0] for i, v in enumerate(row) if v} for row in kernel.basis]
        cached = P._memo[key] = (basis, tuple(cols[i] for i in kernel.pivot_cols))
    return cached


def _embed(P: PathComplex, m: int, N: int) -> Subspace:
    """Omega^(1)_m in Q(zeta_N): the rational level-1 basis with embedded coefficients."""
    ambient = len(P.paths(m))
    rows, pivots = _ordinary_omega(P, m)
    zero = Scalar.zero(N)
    scalars: dict = {}
    basis = []
    for row in rows:
        vec = [zero] * ambient
        for c, v in row.items():
            s = scalars.get(v)
            if s is None:
                s = scalars[v] = Scalar.from_rational(N, v)
            vec[c] = s
        basis.append(tuple(vec))
    return Subspace(ambient, N, tuple(basis), pivots)


def _sparse(space: Subspace) -> list[Row]:
    return [{c: v for c, v in enumerate(x) if v} for x in space.basis]


def _kernel_within(space: Subspace, images: list[Row]) -> Subspace:
    """Canonical basis of the x in space that a linear map kills.

    ``images[i]`` is the image of the i-th basis vector, so x = sum c_i b_i
    is killed exactly when sum c_i images[i] = 0: one nullspace in the
    coefficients, with one row per coordinate the images reach.
    """
    rows: dict[int, Row] = {}
    for i, y in enumerate(images):
        for r, v in y.items():
            rows.setdefault(r, {})[i] = v
    if not rows:
        return space
    coeffs = nullspace(Matrix.from_row_dicts(list(rows.values()), space.dim, space.order))
    if coeffs.dim == 0:
        return Subspace.zero_space(space.ambient_dim, space.order)
    basis = _sparse(space)
    zero = Scalar.zero(space.order)
    vectors = []
    for c in coeffs.basis:
        x: Row = {}
        for ci, b in zip(c, basis):
            if ci:
                _sub_scaled(x, b, -ci)
        vectors.append(tuple(x.get(k, zero) for k in range(space.ambient_dim)))
    return Subspace.from_spanning(vectors, space.ambient_dim, space.order)


def _level(P: PathComplex, m: int, j: int, N: int) -> Subspace:
    """Omega^(j)_m: allowed m-chains x with d^s x allowed for every s <= j."""
    j = max(0, min(j, m - 1))
    key = ("omega_level", m, j, N)
    space = P._memo.get(key)
    if space is None:
        if j == 0:
            space = Subspace.full_space(len(P.paths(m)), N)
        elif j == 1:
            space = _embed(P, m, N)
        else:
            space = _level(P, m, j - 1, N)
            lower = _level(P, m - 1, j - 1, N)
            if space.dim and lower.dim < lower.ambient_dim:
                pivots = list(zip(lower.pivot_cols, _sparse(lower)))
                residuals = []
                for y in boundary_power_matrix(P, m, 1, N).images(space):
                    residual = dict(y)
                    for p, row in pivots:
                        f = y.get(p)
                        if f:
                            _sub_scaled(residual, row, f)
                    residuals.append(residual)
                space = _kernel_within(space, residuals)
        P._memo[key] = space
    return space


def omega_full(P: PathComplex, n: int, N: int) -> OmegaSpace:
    """Omega_n^N, the intersection of omega_nq over q = 1 .. min(N-1, n-1).

    Built level by level from d^1 alone.  Let Omega^(j)_m be the allowed
    m-chains x whose d^s x is allowed for every s <= j, so Omega^(0)_m is
    the allowed span A_m.  Then

        Omega^(j)_m = {x in Omega^(j-1)_m : d x in Omega^(j-1)_(m-1)},
        Omega_n^N   = Omega^(k)_n,  k = max(0, min(N-1, n-1)).

    Proof: x lies in Omega^(j)_m exactly when x is allowed and
    d^s x = d^(s-1)(d x) is allowed for s = 1 .. j, that is, when x is
    allowed and d x lies in Omega^(j-1)_(m-1).  The levels are nested, so
    such an x already lies in Omega^(j-1)_m and the search can stay there.
    For s >= n, d^s x lives in dimension <= 0, where every regular path is
    allowed, so the levels past n-1 add nothing.

    Level 1 is the kernel of the non-allowed rows of d^1, each a unit
    times a 0/1 row (one missing edge per non-allowed face; see the module
    docstring), solved over Q.  A level j >= 2 is one small nullspace over
    the level-(j-1) basis b: the residuals of d b against the canonical
    basis of Omega^(j-1)_(m-1) are linear in the coefficients of x, and x
    qualifies exactly when its combined residual vanishes.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    key = ("omega_full", n, N)
    cached = P._memo.get(key)
    if cached is None:
        cached = P._memo[key] = OmegaSpace(n, N, None, _level(P, n, N - 1, N))
    return cached


class _NthPower(NamedTuple):
    """What d^N does to Omega_m^N, m >= N: does it vanish, does it stay allowed."""

    vanishes: bool
    allowed: bool


def _boundary(P: PathComplex, n: int, N: int, chains: list[Row]) -> tuple[list[Row], bool]:
    """d of allowed n-chains, and whether any image left the allowed span."""
    if n < 0:
        return [{} for _ in chains], False
    bm = boundary_power_matrix(P, n, 1, N)
    images = [bm.apply(x.items()) for x in chains]
    return images, any(y and max(y) >= bm.allowed_rows for y in images)


def _images(P: PathComplex, m: int, N: int) -> list[list[Row]]:
    """d^r x for r = 1 .. N-1 over the Omega_m^N basis chains x, made once per (m, N).

    Entry r-1 holds the images d^r x, as sparse rows over the allowed
    (m-r)-paths, in basis order; each is one d^1 application to the one
    before.  An image that leaves the allowed span raises
    ``InvariantViolation``: by ``homology.betti`` none can.  One more
    application gives d^N x, whose record (``_nth_power_record``) is kept
    for m >= N.
    """
    key = ("images", m, N)
    images = P._memo.get(key)
    if images is None:
        images = []
        chain = _sparse(omega_full(P, m, N).space)
        for r in range(1, N + 1):
            chain, escaped = _boundary(P, m - r + 1, N, chain)
            if r == N:
                break
            if escaped:
                raise InvariantViolation(
                    f"d^{r} of an invariant {m}-chain left the allowed span")
            images.append(chain)
        P._memo[key] = images
        if m >= N:
            P._memo[("nth_power", m, N)] = _NthPower(not any(chain), not escaped)
    return images


def _image_rank(P: PathComplex, m: int, r: int, N: int) -> int:
    """rank(d^r | Omega_m^N)."""
    key = ("image_rank", m, r, N)
    cached = P._memo.get(key)
    if cached is None:
        cached = P._memo[key] = rank(dict(y) for y in _images(P, m, N)[r - 1])
    return cached


def _nth_power_record(P: PathComplex, m: int, N: int) -> _NthPower:
    """The d^N record of Omega_m^N, m >= N, made with its images (see ``_images``)."""
    _images(P, m, N)
    return P._memo[("nth_power", m, N)]


def verify_chain_closure(P: PathComplex, N: int, n: int) -> bool:
    """Is the boundary image of Omega_n^N contained in Omega_{n-1}^N?

    Exactly when n <= N or d^N Omega_n^N is allowed.  Omega_k^N is the set
    of allowed k-chains whose powers d^s stay allowed for s <= min(N-1, k-1)
    (for s >= k they live in dimension <= 0, where every regular path is
    allowed).  So for x in Omega_n, d x lies in Omega_{n-1} exactly when
    d^s x = d^(s-1)(d x) is allowed for every s <= min(N, n-1).  Membership
    of x already gives this for s <= min(N-1, n-1), which covers every s
    when n <= N; for n > N the one condition left is s = N.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return n <= N or _nth_power_record(P, n, N).allowed


def omega_nilpotency(P: PathComplex, N: int, n_max: int) -> bool:
    """Does the N-th boundary power vanish on Omega_n^N for all n <= n_max?

    This is the nilpotency of the actual N-chain complex the homology is
    built on; below dimension N it holds trivially.  It holds whenever no
    allowed path revisits a vertex two steps later (in particular for all
    digraphs without antiparallel edge pairs and for simplicial complexes).
    """
    return all(_nth_power_record(P, m, N).vanishes for m in range(N, n_max + 1))
