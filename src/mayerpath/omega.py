"""Invariant-path spaces Omega_n^{N,q} and their intersection Omega_n^N."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .boundary import boundary_power_matrix
from .complexes import PathComplex
from .linalg import Matrix, Row, Subspace, nullspace, rank


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


def _omega_rows(P: PathComplex, n: int, N: int) -> list[Row]:
    """The stacked non-allowed rows of d^1 .. d^k, k = min(N-1, n-1)."""
    return [row for q in range(1, min(N - 1, n - 1) + 1)
            for row in boundary_power_matrix(P, n, q, N).nonallowed_block().row_dicts()]


def omega_full(P: PathComplex, n: int, N: int) -> OmegaSpace:
    """Intersection of omega_nq over q = 1 .. min(N-1, n-1).

    One nullspace of the stacked non-allowed row blocks of d^1 .. d^k,
    k = min(N-1, n-1): a chain lies in every omega_nq exactly when it
    satisfies all of their constraints at once.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    key = ("omega_full", n, N)
    cached = P._memo.get(key)
    if cached is not None:
        return cached
    ambient = len(P.paths(n))
    rows = _omega_rows(P, n, N)
    if rows:
        space = nullspace(Matrix.from_row_dicts(rows, ambient, N))
    else:
        space = Subspace.full_space(ambient, N)
    result = OmegaSpace(n, N, None, space)
    P._memo[key] = result
    return result


def _image_rank(P: PathComplex, m: int, r: int, N: int) -> int:
    """rank(d^r | Omega_m^N)."""
    key = ("image_rank", m, r, N)
    cached = P._memo.get(key)
    if cached is None:
        cached = P._memo[key] = rank(
            boundary_power_matrix(P, m, r, N).images(omega_full(P, m, N).space))
    return cached


class _NthPower(NamedTuple):
    """What d^N does to Omega_m^N, m >= N: does it vanish, does it stay allowed."""

    vanishes: bool
    allowed: bool


def _nth_power_record(P: PathComplex, m: int, r: int, N: int) -> _NthPower:
    """The d^N record of Omega_m^N, made once per m.

    It is made in the pass that takes rank(d^r | Omega_m) for some
    1 <= r <= N-1: each image y = d^r x of a basis chain x is allowed
    (see ``homology.betti``), so d^N x = d^(N-r) y is one more matrix
    product, read off before the rank step consumes y.  Whichever r comes
    first fills the record; later calls read it back.
    """
    key = ("nth_power", m, N)
    record = P._memo.get(key)
    if record is None:
        rest = boundary_power_matrix(P, m - r, N - r, N)
        vanishes = allowed = True

        def recorded_images():
            nonlocal vanishes, allowed
            for y in boundary_power_matrix(P, m, r, N).images(omega_full(P, m, N).space):
                z = rest.apply(y.items())
                if z:
                    vanishes = False
                    allowed = allowed and max(z) < rest.allowed_rows
                yield y

        P._memo[("image_rank", m, r, N)] = rank(recorded_images())
        record = P._memo[key] = _NthPower(vanishes, allowed)
    return record


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
    return n <= N or _nth_power_record(P, n, N - 1, N).allowed


def omega_nilpotency(P: PathComplex, N: int, n_max: int) -> bool:
    """Does the N-th boundary power vanish on Omega_n^N for all n <= n_max?

    This is the nilpotency of the actual N-chain complex the homology is
    built on; below dimension N it holds trivially.  It holds whenever no
    allowed path revisits a vertex two steps later (in particular for all
    digraphs without antiparallel edge pairs and for simplicial complexes).
    """
    return all(_nth_power_record(P, m, N - 1, N).vanishes for m in range(N, n_max + 1))
