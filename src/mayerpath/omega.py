"""Invariant-path spaces Omega_n^{N,q} and their intersection Omega_n^N.

Omega_m^N, the allowed m-chains whose boundary powers d^1 .. d^(N-1)
stay allowed, is built level by level from d = d^1 alone (see
``omega_full`` for the recursion and its proof).  d^1 has one form
here, the N-free face rule ``boundary.regular_faces``.  Its non-allowed
faces give level 1 for every N as rational 0/1 rows (``_ordinary_rows``),
and its table ``boundary.faces``, applied over Z[zeta_N] by
``apply_regular_power``, gives every higher level and every image.
Level 1 scans the faces itself rather than read them off the table:
``faces`` pays for a row index and for the rows of the allowed faces,
which level 1 never reads, and at the top dimensions, where Omega is
often 0, nothing else needs the table.

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
``nullspace`` over Q = Q(zeta_1), and each sparse rational basis row
becomes a Q(zeta_N) row by reading its Fractions as Scalars (``_embed``).
A space spanned by rational vectors has the same reduced row echelon
basis over Q and over Q(zeta_N), so the basis stays canonical.  Every
basis is a ``linalg.Subspace`` of sparse rows, the form the eliminations
and ``apply_regular_power`` work in, so no level converts its rows.
The 0/1 fact is checked where each row is built: a non-allowed end
face, or a non-allowed face reached by deleting two different
positions, raises ``InvariantViolation``.

A level j >= 2 needs d^j of the level-(j-1) basis, and on Omega_m^N
every d^r x with r <= N-1 is allowed (see ``homology.betti``), so d^r x
is r applications of d^1, each intermediate chain checked to be
allowed, and d^N x one more (``_images``).  They run in the ring of
integers Z[zeta_N]: each basis row of a level is scaled by the lcm of
its denominators (``_integer_basis``), an entry is a tuple of phi(N)
ints in the power basis, and d^1 is the N-free table of
``boundary.faces``, whose entries are the units zeta^j; multiplying by
zeta^j is the rotation ``cyclotomic.rotate`` of the int coefficients.
Scaling a row scales its images and changes no rank; dividing an image
by its row's scale (``_in_field``) gives the image of the basis row in
Q(zeta_N), where the level's kernel is solved.

``_image_rank`` takes the rank of an image set with
``linalg.certified_rank``: F_p ranks at successive primes p = 1 (mod N)
above 2^31, zeta sent to an element w of order N, keeping the largest
rank r.  Each is a lower bound.  Any (r+1)-minor M vanishes modulo every
prime ideal (p, zeta - w) used, so the product of the primes divides the
integer Norm(M); by Hadamard's inequality |Norm(M)| is at most
(prod of the r+1 largest s_i)^(phi(N)/2), s_i = sum_j ||a_ij||_1^2.
Once the squared product of the primes exceeds
(prod of those s_i)^phi(N), M = 0 and the rank is r (details in
``linalg``).  No rank of the Betti path is eliminated over Q(zeta_N).

``omega_nq`` with q = 1 is level 1.  With q >= 2 its intermediate images
d^s x leave the allowed span, and ``faces`` has columns only for allowed
paths, so it takes d^q of each allowed path through the full regular
span (``boundary.regular_power``) and solves the non-allowed rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .boundary import faces, regular_faces, regular_power
from .complexes import Path, PathComplex
from .cyclotomic import Scalar, euler_phi, rotate
from .linalg import (InvariantViolation, IntRow, Matrix, Row, Subspace, _sub_scaled,
                     certified_rank, nullspace)


@dataclass
class OmegaSpace:
    n: int
    order: int
    q: int | None  # None means the intersection over all valid q
    space: Subspace


def omega_nq(P: PathComplex, n: int, q: int, N: int) -> OmegaSpace:
    """Allowed n-chains whose q-th boundary power stays allowed.

    For q = 1 this is level 1 of ``omega_full``'s recursion, the ordinary
    Omega solved over Q.  For q >= 2 it is the nullspace of the
    non-allowed rows of d^q, taken path by path through the full regular
    span (``boundary.regular_power``); no row reached means the full
    space.  Row order cannot change the canonical kernel basis, only the
    work of the elimination; rows sorted by path take fewer products than
    rows in order of first reach on the test corpus.
    For q >= n the image lives in dimension <= 0 where every regular path
    is allowed, so the space is all of the allowed span.
    """
    if N < 2 or not 1 <= q <= N - 1:
        raise ValueError("need N >= 2 and 1 <= q <= N-1")
    key = ("omega_nq", n, q, N)
    cached = P._memo.get(key)
    if cached is not None:
        return cached
    ambient = len(P.paths(n))
    if q == 1:
        space = _level(P, n, 1, N)
    elif q >= n:
        space = Subspace.full_space(ambient, N)
    else:
        allowed = P.allowed_set(n - q)
        scalars: dict[tuple[int, ...], Scalar] = {}
        rows: dict[Path, Row] = {}
        for c, p in enumerate(P.paths(n)):
            for f, t in regular_power(p, q, N).items():
                if f not in allowed:
                    v = scalars.get(t)
                    if v is None:
                        v = scalars[t] = Scalar(N, tuple(Fraction(a) for a in t))
                    rows.setdefault(f, {})[c] = v
        space = (nullspace(Matrix.from_row_dicts([rows[f] for f in sorted(rows)], ambient, N))
                 if rows else Subspace.full_space(ambient, N))
    result = OmegaSpace(n, N, q, space)
    P._memo[key] = result
    return result


def _ordinary_rows(P: PathComplex, m: int) -> list[tuple[int, list[int]]]:
    """The 0/1 non-allowed rows of d^1 on the allowed m-paths, m >= 2.

    Each row is its face's deletion position j, 0 < j < m, and its column
    list.  Scans the ``boundary.regular_faces`` of each path against the
    allowed (m-1)-paths, so rows come in order of first reach.  Raises
    ``InvariantViolation`` where a row would not be a unit times a 0/1 row
    (see the module docstring).
    """
    lower = P.allowed_set(m - 1)
    position: dict[Path, int] = {}
    rows: dict[Path, list[int]] = {}
    for c, p in enumerate(P.paths(m)):
        for f, j in regular_faces(p):
            if f in lower:
                continue
            if j in (0, m):
                raise InvariantViolation(f"an end face of the allowed path {p} is not allowed")
            if position.setdefault(f, j) != j:
                raise InvariantViolation(
                    f"non-allowed face {f} is reached by deleting positions "
                    f"{position[f]} and {j}, so its row is not a unit times a 0/1 row")
            rows.setdefault(f, []).append(c)
    return [(position[f], cols) for f, cols in rows.items()]


def _ordinary_omega(P: PathComplex, m: int) -> tuple[list[dict], tuple[int, ...]]:
    """Level 1 over Q: canonical basis rows {column: Fraction} and their pivot columns.

    Shared by every N.  Singleton rows are peeled first, the rest goes to
    ``nullspace`` over Q(zeta_1) on the columns still live.
    """
    key = ("ordinary_omega", m)
    cached = P._memo.get(key)
    if cached is None:
        rows = [cols for _, cols in _ordinary_rows(P, m)]
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
        basis = [{cols[i]: v.coeffs[0] for i, v in row.items()} for row in kernel.basis]
        cached = P._memo[key] = (basis, tuple(cols[i] for i in kernel.pivot_cols))
    return cached


def _embed(P: PathComplex, m: int, N: int) -> Subspace:
    """Omega^(1)_m in Q(zeta_N): the rational level-1 basis with embedded coefficients."""
    rows, pivots = _ordinary_omega(P, m)
    scalars = {v: Scalar.from_rational(N, v) for v in {v for row in rows for v in row.values()}}
    basis = tuple({c: scalars[v] for c, v in row.items()} for row in rows)
    return Subspace(len(P.paths(m)), N, basis, pivots)


def _kernel_within(space: Subspace, images: list[Row]) -> Subspace:
    """Canonical basis of the x in space that a linear map kills.

    ``images[i]`` is the image of the i-th basis vector b_i, so
    x = sum c_i b_i is killed exactly when sum c_i images[i] = 0: one
    nullspace in the coefficients, with one row per coordinate the images
    reach.  The basis is read off, not reduced again.  Let p_i be the
    pivot of b_i and c_j the canonical kernel rows, with pivots k_j.  The
    b_i are 1 at p_i and 0 at every other p_i', so x_j = sum_i c_ji b_i
    equals c_ji at p_i: 1 at p_(k_j) and 0 at every other p_(k_j').  And
    c_ji = 0 for i < k_j, so x_j has no entry left of p_(k_j).  The k_j
    and so the p_(k_j) increase: the x_j are the canonical basis, with
    pivots p_(k_j).
    """
    rows: dict[int, Row] = {}
    for i, y in enumerate(images):
        for r, v in y.items():
            rows.setdefault(r, {})[i] = v
    if not rows:
        return space
    coeffs = nullspace(Matrix.from_row_dicts(list(rows.values()), space.dim, space.order))
    basis = []
    for c in coeffs.basis:
        x: Row = {}
        for i, ci in c.items():
            _sub_scaled(x, space.basis[i], -ci)
        basis.append(dict(sorted(x.items())))
    return Subspace(space.ambient_dim, space.order, tuple(basis),
                    tuple(space.pivot_cols[k] for k in coeffs.pivot_cols))


def _in_field(images: list[IntRow], scales: list[int], N: int) -> list[Row]:
    """Integer images of scaled basis rows as images of the basis rows, in Q(zeta_N)."""
    return [{c: Scalar(N, tuple(Fraction(a, s) for a in t)) for c, t in y.items()}
            for y, s in zip(images, scales)]


def _level(P: PathComplex, m: int, j: int, N: int) -> Subspace:
    """Omega^(j)_m: allowed m-chains x with d^s x allowed for every s <= j.

    For j >= 2, the kernel inside Omega^(j-1)_m of the non-allowed rows
    of d^j (see ``omega_full``).
    """
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
            if space.dim:
                powers, _ = _powers(P, m, j - 1, N)
                allowed = faces(P, m - j + 1).allowed_rows
                escapes = [{r: t for r, t in y.items() if r >= allowed} for y in powers[-1]]
                space = _kernel_within(
                    space, _in_field(escapes, _integer_basis(P, m, j - 1, N)[1], N))
        P._memo[key] = space
    return space


def omega_full(P: PathComplex, n: int, N: int) -> OmegaSpace:
    """Omega_n^N, the intersection of omega_nq over q = 1 .. min(N-1, n-1).

    Built level by level from d^1 alone.  Let Omega^(j)_m be the allowed
    m-chains x whose d^s x is allowed for every s <= j, so Omega^(0)_m is
    the allowed span A_m.  Then

        Omega^(j)_m = {x in Omega^(j-1)_m : d^j x allowed},
        Omega_n^N   = Omega^(k)_n,  k = max(0, min(N-1, n-1)).

    Proof: x in Omega^(j-1)_m already has d^s x allowed for every
    s <= j-1, so it lies in Omega^(j)_m exactly when d^j x is allowed too;
    and every x of Omega^(j)_m lies in Omega^(j-1)_m by definition.  For
    s >= n, d^s x lives in dimension <= 0, where every regular path is
    allowed, so the levels past n-1 add nothing.

    Level 1 is the kernel of the non-allowed rows of d^1, each a unit
    times a 0/1 row (one missing edge per non-allowed face; see the module
    docstring), solved over Q.  A level j >= 2 is one small nullspace over
    the level-(j-1) basis b: d^j b is j applications of d^1 over
    Z[zeta_N], its non-allowed rows are linear in the coefficients of x,
    and x qualifies exactly when their combination vanishes.  No level of
    dimension m-1 is needed.
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


def _integer_basis(P: PathComplex, m: int, j: int, N: int) -> tuple[list[IntRow], list[int]]:
    """The Omega^(j)_m basis rows over Z[zeta_N], each scaled by the lcm of its denominators.

    Returns the rows and their scales.  Level 0 is the unit rows, level 1
    comes straight from the rational rows of ``_ordinary_omega``; only a
    level >= 2 is read off its Q(zeta_N) basis.
    """
    j = max(0, min(j, m - 1))
    key = ("integer_basis", m, j, N)
    cached = P._memo.get(key)
    if cached is None:
        zeros = (0,) * (euler_phi(N) - 1)
        if j == 0:
            vectors = [{c: (1,) + zeros} for c in range(len(P.paths(m)))]
        elif j == 1:
            vectors = [{c: (v,) + zeros for c, v in row.items()}
                       for row in _ordinary_omega(P, m)[0]]
        else:
            vectors = [{c: v.coeffs for c, v in x.items()} for x in _level(P, m, j, N).basis]
        rows, scales = [], []
        for x in vectors:
            scale = math.lcm(*(a.denominator for t in x.values() for a in t))
            rows.append({c: tuple(a.numerator * (scale // a.denominator) for a in t)
                         for c, t in x.items()})
            scales.append(scale)
        cached = P._memo[key] = (rows, scales)
    return cached


def apply_regular_power(P: PathComplex, n: int, N: int,
                        chains: list[IntRow]) -> tuple[list[IntRow], bool]:
    """d of allowed n-chains over Z[zeta_N], and whether any image left the allowed span."""
    if n < 1 or not any(chains):
        return [{} for _ in chains], False
    table = faces(P, n)
    phi = euler_phi(N)
    products: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    images = []
    for x in chains:
        sums: dict[int, list[int]] = {}
        for c, a in x.items():
            for r, j in table.columns[c]:
                j %= N
                term = products.get((a, j))
                if term is None:
                    term = products[(a, j)] = rotate(a, j, N)
                acc = sums.get(r)
                if acc is None:
                    sums[r] = list(term)
                else:
                    for k in range(phi):
                        acc[k] += term[k]
        images.append({r: tuple(v) for r, v in sums.items() if any(v)})
    return images, any(y and max(y) >= table.allowed_rows for y in images)


def _powers(P: PathComplex, m: int, j: int, N: int) -> tuple[list[list[IntRow]], bool]:
    """d^1 .. d^(j+1) of the integer Omega^(j)_m basis, and whether d^(j+1) left the allowed span.

    Entry s-1 holds the images d^s x over Z[zeta_N], in basis order, each
    one d^1 application (``apply_regular_power``) to the one before.  On
    level j the powers up to d^j are allowed by definition; one that is
    not raises ``InvariantViolation``.
    """
    chain = _integer_basis(P, m, j, N)[0]
    powers: list[list[IntRow]] = []
    escaped = False
    for s in range(1, j + 2):
        if escaped:
            raise InvariantViolation(
                f"d^{s - 1} of a level-{j} {m}-chain left the allowed span")
        chain, escaped = apply_regular_power(P, m - s + 1, N, chain)
        powers.append(chain)
    return powers, escaped


def _images(P: PathComplex, m: int, N: int) -> list[list[IntRow]]:
    """d^r x for r = 1 .. N-1 over the integer Omega_m^N basis rows x, made once per (m, N).

    Entry r-1 holds the images d^r x, as sparse Z[zeta_N] rows over the
    allowed (m-r)-paths, in basis order; each is one d^1 application to
    the one before (``_powers``).  An image that leaves the allowed span
    raises ``InvariantViolation``: by ``homology.betti`` none can.  One
    more application gives d^N x, whose record (``_nth_power_record``) is
    kept for m >= N.
    """
    key = ("images", m, N)
    images = P._memo.get(key)
    if images is None:
        powers, escaped = _powers(P, m, N - 1, N)
        images = P._memo[key] = powers[:-1]
        if m >= N:
            P._memo[("nth_power", m, N)] = _NthPower(not any(powers[-1]), not escaped)
    return images


def _image_rank(P: PathComplex, m: int, r: int, N: int) -> int:
    """rank(d^r | Omega_m^N), certified from F_p ranks (see the module docstring)."""
    key = ("image_rank", m, r, N)
    cached = P._memo.get(key)
    if cached is None:
        cached = P._memo[key] = certified_rank(_images(P, m, N)[r - 1], N)
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
